package dyadic

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/pbe"
)

// decodeWhole decodes data as exactly one tree whose leaves are under gamma.
func decodeWhole(data []byte, gamma float64) (*Tree, error) {
	r := binenc.NewReader(data)
	tr, err := DecodeTree(r, gamma)
	if err != nil {
		return nil, err
	}
	return tr, r.Close()
}

func TestTreeMarshalRoundTrip(t *testing.T) {
	f, steer := indexGammas(2)
	tr, err := New(64, CMPBELevels(3, 32, 5, f, steer))
	if err != nil {
		t.Fatal(err)
	}
	data := burstyStream(9, 64, 2000)
	for _, el := range data {
		tr.Append(el.Event, el.Time)
	}
	tr.Finish()

	var w binenc.Writer
	if err := tr.Encode(&w); err != nil {
		t.Fatal(err)
	}
	got, err := decodeWhole(w.Bytes(), f)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != tr.K() || leafCounts(got) != leafCounts(tr) || got.Levels() != tr.Levels() {
		t.Fatal("metadata mismatch")
	}
	// Identical query results.
	for _, theta := range []float64{50, 200} {
		a := tr.BurstyEventIDs(1049, eventsTheta(theta), pbe.MustSpan(50), nil)
		b := got.BurstyEventIDs(1049, eventsTheta(theta), pbe.MustSpan(50), nil)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("θ=%v: %v vs %v", theta, a, b)
		}
	}
	for e := uint64(0); e < 64; e += 5 {
		if got.Level(0).Burstiness(e, 1049, pbe.MustSpan(50)) != tr.Level(0).Burstiness(e, 1049, pbe.MustSpan(50)) {
			t.Fatalf("point query differs for %d", e)
		}
	}
}

func TestTreeMarshalExactLevelsFails(t *testing.T) {
	tr, _ := New(8, exactFactory)
	tr.Append(1, 1)
	if err := tr.Encode(new(binenc.Writer)); err == nil {
		t.Fatal("non-serializable levels accepted")
	}
}

func TestUnmarshalTreeRejectsCorrupt(t *testing.T) {
	f, steer := indexGammas(2)
	tr, _ := New(8, CMPBELevels(2, 8, 1, f, steer))
	tr.Append(1, 5)
	tr.Finish()
	var w binenc.Writer
	if err := tr.Encode(&w); err != nil {
		t.Fatal(err)
	}
	blob := w.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		if _, err := decodeWhole(blob[:cut], f); err == nil {
			t.Fatalf("cut=%d accepted", cut)
		}
	}
	if _, err := decodeWhole([]byte("garbage"), f); err == nil {
		t.Fatal("garbage accepted")
	}
	// The header's element count (byte 6) and largest timestamp (byte 7),
	// zigzag varints after the magic and K, are the leaf level's; a header
	// claiming others is refused.
	if blob[6] != 2 || blob[7] != 10 {
		t.Fatalf("fixture: header counters % x, want 02 0a", blob[6:8])
	}
	for at, v := range map[int]byte{6: 4, 7: 12} {
		forged := slices.Clone(blob)
		forged[at] = v
		if _, err := decodeWhole(forged, f); err == nil || !strings.Contains(err.Error(), "the leaf level holds 1 elements up to 5, the tree") {
			t.Errorf("header byte %d forged to %#x: %v, want a refusal naming the leaf's counters", at, v, err)
		}
	}
}

// TestDecodeTreeHoldsLevelsToTheirGamma: a tree loads only under the leaf γ
// it was built with, every level under SteerGamma of its height. Built with
// the leaf's γ throughout — the index as it was before the factor — or under
// another factor, the height-6 level is refused; loaded under another leaf
// γ, the leaf level is. None is re-fitted or served.
func TestDecodeTreeHoldsLevelsToTheirGamma(t *testing.T) {
	leaf, steer := indexGammas(2)
	for _, c := range []struct {
		name  string
		build [2]float64
		load  float64
		want  string
	}{
		{"as built", [2]float64{leaf, steer}, leaf, ""},
		{"built under the leaf's γ throughout", [2]float64{leaf, leaf}, leaf,
			"level 3: cmpbe: cells under gamma 2 in a level under gamma 8"},
		{"built under another steering factor", [2]float64{leaf, 2 * steer}, leaf,
			"level 3: cmpbe: cells under gamma 16 in a level under gamma 8"},
		{"loaded under another leaf γ", [2]float64{leaf, steer}, 2 * leaf,
			"level 0: cmpbe: cells under gamma 2 in a level under gamma 4"},
	} {
		tr, err := New(64, CMPBELevels(3, 8, 5, c.build[0], c.build[1])) // heights 0, 1 hashed; 2 and 6 collision-free
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Heights(); !reflect.DeepEqual(got, []int{0, 1, 2, 6}) {
			t.Fatalf("fixture keeps heights %v", got)
		}
		for _, el := range burstyStream(9, 64, 500) {
			tr.Append(el.Event, el.Time)
		}
		tr.Finish()
		var w binenc.Writer
		if err := tr.Encode(&w); err != nil {
			t.Fatal(err)
		}
		_, err = decodeWhole(w.Bytes(), c.load)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: DecodeTree error %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeTree error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
