package dyadic

import (
	"reflect"
	"sort"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/cmpbe"
)

// decodeWhole decodes data as exactly one tree.
func decodeWhole(data []byte, f cmpbe.Factory) (*Tree, error) {
	r := binenc.NewReader(data)
	tr, err := DecodeTree(r, f)
	if err != nil {
		return nil, err
	}
	return tr, r.Close()
}

func TestTreeMarshalRoundTrip(t *testing.T) {
	f, err := cmpbe.PBE2Factory(2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(64, CMPBELevels(3, 32, 5, f))
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
	if got.K() != tr.K() || got.N() != tr.N() || got.MaxTime() != tr.MaxTime() || got.Levels() != tr.Levels() {
		t.Fatal("metadata mismatch")
	}
	// Identical query results.
	for _, theta := range []float64{50, 200} {
		a, err := tr.BurstyEvents(1049, theta, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.BurstyEvents(1049, theta, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("θ=%v: %v vs %v", theta, a, b)
		}
	}
	for e := uint64(0); e < 64; e += 5 {
		if got.Burstiness(e, 1049, 50) != tr.Burstiness(e, 1049, 50) {
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
	f, _ := cmpbe.PBE2Factory(2)
	tr, _ := New(8, CMPBELevels(2, 8, 1, f))
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
}
