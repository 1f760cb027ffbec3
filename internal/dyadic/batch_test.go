package dyadic

import (
	"bytes"
	"slices"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// TestAppendBatchMatchesAppend holds the level-major, fanned-out ingest to
// the per-element twin it replaces on the facade's path: for every fan-out
// cap (1 runs inline, 100 is clamped to the level count) the tree marshals
// to the same bytes — Count-Min levels under collision-free ones, ids beyond
// K, a second round after Finish.
func TestAppendBatchMatchesAppend(t *testing.T) {
	const k = 64
	data := burstyStream(17, k, 1500)
	for i := range data {
		if i%5 == 0 {
			data[i].Event += 3 * k
		}
	}
	f, steer := indexGammas(2)
	levels := CMPBELevels(2, 4, 9, f, steer) // levels 0–2 hash 64/32/16 ids into 2×4 cells
	marshal := func(tr *Tree) []byte {
		t.Helper()
		tr.Finish()
		var w binenc.Writer
		if err := tr.Encode(&w); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	cut := len(data) / 2
	for _, workers := range []int{0, 1, 2, 4, 100} {
		want, err := New(k, levels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(k, levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []stream.Stream{data[:cut], data[cut:]} {
			for _, el := range part {
				want.Append(el.Event, el.Time)
			}
			got.AppendBatch(nil, workers)
			for lo := 0; lo < len(part); lo += 509 {
				got.AppendBatch(slices.Clone(part[lo:min(lo+509, len(part))]), workers)
			}
			if leafCounts(got) != leafCounts(want) || got.Bytes() != want.Bytes() {
				t.Fatalf("workers=%d: N and maxT %v/%v, Bytes %d/%d", workers,
					leafCounts(got), leafCounts(want), got.Bytes(), want.Bytes())
			}
			if !bytes.Equal(marshal(got), marshal(want)) {
				t.Fatalf("workers=%d: batched tree differs from per-element tree", workers)
			}
		}
	}
}

// TestAppendBatchPlainLevels covers levels without a batch method (the exact
// stores these tests substitute): AppendBatch feeds them element by element
// and every level answers as it does after Append.
func TestAppendBatchPlainLevels(t *testing.T) {
	const k = 32
	data := burstyStream(19, k, 800)
	want, _ := New(k, exactFactory)
	got, _ := New(k, exactFactory)
	for _, el := range data {
		want.Append(el.Event, el.Time)
	}
	got.AppendBatch(slices.Clone(data), 3)
	for lv := 0; lv < want.Levels(); lv++ {
		for agg := uint64(0); agg < k>>lv; agg++ {
			for _, ts := range []int64{100, 400, 430, 799} {
				if g, w := got.Level(lv).Burstiness(agg, ts, pbe.MustSpan(20)), want.Level(lv).Burstiness(agg, ts, pbe.MustSpan(20)); g != w {
					t.Fatalf("level %d id %d t=%d: %v, per-element %v", lv, agg, ts, g, w)
				}
			}
		}
	}
}
