package cmpbe

import (
	"fmt"

	"histburst/internal/pbe2"
)

// sameHashing refuses a pair of sketches whose cells do not summarize the
// same ids: other dimensions, or another hash family — which a collision-free
// level and a one-row Count-Min sketch of its width are, whatever their seeds.
func sameHashing(a, b *Sketch) error {
	if a.d != b.d || a.w != b.w {
		return fmt.Errorf("cmpbe: dimension mismatch (%d×%d vs %d×%d)", a.d, a.w, b.d, b.w)
	}
	if !a.hf.Equal(b.hf) {
		return fmt.Errorf("cmpbe: hash family mismatch (seed %d vs %d, collision-free %t vs %t)",
			a.seed, b.seed, a.CollisionFree(), b.CollisionFree())
	}
	return nil
}

// MergeSketches builds the sketch of parts concatenated: sketches over
// mutually exclusive time ranges of one stream, in time order, sharing
// dimensions and hash family (so every event maps to the same cells). Cell c
// of the result is pbe2.MergeFinishedInto of every part's cell c — valid
// because those cells summarize time-disjoint partitions of one substream —
// assembled straight from the sources' packed segment arrays, and all d·w
// result cells live in one array. Sources must be finished; they are only
// read.
func MergeSketches(parts []*Sketch) (*Sketch, error) {
	if len(parts) == 0 || parts[0] == nil {
		return nil, fmt.Errorf("cmpbe: merge of zero sketches")
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p == nil {
			return nil, fmt.Errorf("cmpbe: cannot merge nil sketch")
		}
		if err := sameHashing(first, p); err != nil {
			return nil, err
		}
	}
	out := make([]pbe2.Builder, len(first.cells))
	srcs := make([]*pbe2.Summary, len(parts))
	n, maxT := int64(0), first.maxT
	for _, p := range parts {
		n += p.n
		maxT = max(maxT, p.maxT)
	}
	for c := range out {
		for k, p := range parts {
			srcs[k] = p.cells[c].Seal()
		}
		if err := pbe2.MergeFinishedInto(&out[c], srcs); err != nil {
			return nil, fmt.Errorf("cmpbe: cell (%d,%d): %w", c/first.w, c%first.w, err)
		}
	}
	return &Sketch{d: first.d, w: first.w, seed: first.seed, cells: out, hf: first.hf, n: n, maxT: maxT}, nil
}
