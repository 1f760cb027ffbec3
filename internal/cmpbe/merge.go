package cmpbe

import (
	"fmt"

	"histburst/internal/pbe2"
)

// MergeAppend absorbs a sketch built over a strictly later time range of
// the same stream. Both sketches must share dimensions and hash family (so
// every event maps to the same cells); cells then merge pairwise, which is
// valid because each cell pair summarizes time-disjoint partitions of the
// same merged substream.
func (s *Sketch) MergeAppend(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("cmpbe: cannot merge nil sketch")
	}
	if err := sameHashing(s, other); err != nil {
		return err
	}
	for c := range s.cells {
		if err := s.cells[c].MergeAppend(&other.cells[c]); err != nil {
			return fmt.Errorf("cmpbe: cell (%d,%d): %w", c/s.w, c%s.w, err)
		}
	}
	s.n += other.n
	if other.maxT > s.maxT {
		s.maxT = other.maxT
	}
	s.bytesMemo.Store(0)
	return nil
}

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

// MergeSketches builds a fresh sketch equivalent to MergeAppend-ing each of
// parts[1:] onto a clone of parts[0], without materializing clones: every
// cell is assembled straight from the source cells' packed segment arrays by
// pbe2.MergeFinishedInto, and all d·w result cells live in one array.
// Sources must be finished and are never mutated. Cell arithmetic is
// bit-identical to the MergeAppend chain.
//
//histburst:fastpath MergeAppend
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
	srcs := make([]*pbe2.Builder, len(parts))
	n, maxT := int64(0), first.maxT
	for _, p := range parts {
		n += p.n
		maxT = max(maxT, p.maxT)
	}
	for c := range out {
		for k, p := range parts {
			srcs[k] = &p.cells[c]
		}
		if err := pbe2.MergeFinishedInto(&out[c], srcs); err != nil {
			return nil, fmt.Errorf("cmpbe: cell (%d,%d): %w", c/first.w, c%first.w, err)
		}
	}
	return &Sketch{d: first.d, w: first.w, seed: first.seed, cells: out, hf: first.hf, n: n, maxT: maxT}, nil
}
