package cmpbe_test

import (
	"slices"
	"strings"
	"testing"

	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
)

// TestLevelKindsDoNotMix: a collision-free level and a one-row Count-Min
// sketch of its width seeded 0 agree on depth, width and seed, yet send ids
// to different cells, so merging, appending or downsampling one with the
// other is refused by their hash families. Under an index's downsampling a
// Count-Min level narrows only to a width that divides its own, and a
// collision-free level keeps its width.
func TestLevelKindsDoNotMix(t *testing.T) {
	s, _ := cmpbe.New(1, 8, 0, 2)
	d, _ := cmpbe.NewDirect(8, 2)
	s.Finish()
	d.Finish()
	sd, sw := s.Dims()
	dd, dw := d.Dims()
	if sd != dd || sw != dw || s.Seed() != d.Seed() || s.CollisionFree() || !d.CollisionFree() {
		t.Fatalf("fixture: a %d×%d sketch seeded %d and a %d×%d level seeded %d", sd, sw, s.Seed(), dd, dw, d.Seed())
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "hash family mismatch") {
			t.Errorf("%s: %v", what, err)
		}
	}
	_, err := cmpbe.MergeSketches([]*cmpbe.Sketch{s, d})
	refused("merging a sketch and a collision-free level", err)
	_, err = cmpbe.DownsampleSketches([]*cmpbe.Sketch{d, s}, 4, 1, 8)
	refused("downsampling a collision-free level and a sketch", err)
	_, err = cmpbe.MergeSketches([]*cmpbe.Sketch{d, s})
	refused("merging a collision-free level and a sketch", err)
	if _, err := cmpbe.MergeSketches(nil); err == nil {
		t.Error("merge of zero levels accepted")
	}
	if l, err := cmpbe.MergeSketches([]*cmpbe.Sketch{d, d}); err != nil || !l.CollisionFree() {
		t.Errorf("merging two collision-free levels: %v", err)
	}

	// K = 64 over 2×8 sketches keeps Count-Min levels at heights 0 and 1 and
	// collision-free ones at 2 (16 ids) and 6 (one).
	tr, err := dyadic.New(64, dyadic.CMPBELevels(2, 8, 1, 2, dyadic.SteerGamma(dyadic.SteerHeight, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if hs := tr.Heights(); !slices.Equal(hs, []int{0, 1, 2, 6}) {
		t.Fatalf("fixture: heights %v", hs)
	}
	for i := int64(0); i < 400; i++ {
		tr.Append(uint64(i*7%64), i)
	}
	tr.Finish()
	for w, want := range map[int]int{4: 4, 8: 8, 3: 8, 0: 8, 16: 8} {
		out, err := dyadic.DownsampleTrees([]*dyadic.Tree{tr}, 4, 1, w)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range out.Heights() {
			l := out.Level(i).(*cmpbe.Sketch)
			wantHere := want
			if l.CollisionFree() {
				wantHere = 64 >> h
			}
			if _, got := l.Dims(); got != wantHere {
				t.Errorf("downsampled to width %d: height %d (collision-free %t) is %d wide, want %d", w, h, l.CollisionFree(), got, wantHere)
			}
		}
	}
}
