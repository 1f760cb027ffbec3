package dyadic

import (
	"testing"

	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// TestMergeTreesMatchesMergeAppend pins the n-way tree merge bit-identical
// to merging its parts one at a time (each step a two-part merge-append) on
// every level.
func TestMergeTreesMatchesMergeAppend(t *testing.T) {
	const k = 256
	f, steer := indexGammas(2)
	factory := CMPBELevels(3, 16, 5, f, steer)
	data := burstyStream(17, k, 2000)
	c1, c2 := len(data)/3, 2*len(data)/3
	for c1 < len(data) && data[c1].Time == data[c1-1].Time {
		c1++
	}
	for c2 < len(data) && (c2 <= c1 || data[c2].Time == data[c2-1].Time) {
		c2++
	}
	parts := []stream.Stream{data[:c1], data[c1:c2], data[c2:]}
	build := func() []*Tree {
		out := make([]*Tree, len(parts))
		for i, p := range parts {
			tr, err := New(k, factory)
			if err != nil {
				t.Fatal(err)
			}
			for _, el := range p {
				tr.Append(el.Event, el.Time)
			}
			tr.Finish()
			out[i] = tr
		}
		return out
	}

	fast, err := MergeTrees(build())
	if err != nil {
		t.Fatal(err)
	}
	naiveParts := build()
	naive := naiveParts[0]
	for _, p := range naiveParts[1:] {
		if naive, err = MergeTrees([]*Tree{naive, p}); err != nil {
			t.Fatal(err)
		}
	}

	if leafCounts(fast) != leafCounts(naive) || fast.K() != naive.K() {
		t.Fatalf("counters: N and maxT %v/%v", leafCounts(fast), leafCounts(naive))
	}
	// Every level must answer point queries identically; the bursty-event
	// search is a pure function of those answers.
	for lv := 0; lv < fast.Levels(); lv++ {
		ids := fast.K() >> lv
		for e := uint64(0); e < ids; e++ {
			for _, q := range []int64{0, 500, 1000, 1040, 1500, 1999} {
				a := fast.Level(lv).Burstiness(e, q, pbe.MustSpan(25))
				b := naive.Level(lv).Burstiness(e, q, pbe.MustSpan(25))
				if a != b {
					t.Fatalf("level %d Burstiness(%d,%d) = %v, merging one part at a time gives %v", lv, e, q, a, b)
				}
			}
		}
	}
	fastIDs, err := fast.BurstyEventIDs(1040, 20, pbe.MustSpan(25), nil)
	if err != nil {
		t.Fatal(err)
	}
	naiveIDs, err := naive.BurstyEventIDs(1040, 20, pbe.MustSpan(25), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fastIDs) != len(naiveIDs) {
		t.Fatalf("bursty events %v vs %v", fastIDs, naiveIDs)
	}
	for i := range fastIDs {
		if fastIDs[i] != naiveIDs[i] {
			t.Fatalf("bursty events %v vs %v", fastIDs, naiveIDs)
		}
	}
}

func TestMergeTreesValidation(t *testing.T) {
	if _, err := MergeTrees(nil); err == nil {
		t.Fatal("zero-part merge accepted")
	}
	f, steer := indexGammas(2)
	a, _ := New(64, CMPBELevels(3, 16, 5, f, steer))
	b, _ := New(128, CMPBELevels(3, 16, 5, f, steer))
	if _, err := MergeTrees([]*Tree{a, b}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
