package cmpbe

import (
	"fmt"

	"histburst/internal/pbe2"
)

// MergeAppend absorbs a sketch built over a strictly later time range of
// the same stream. Both sketches must share dimensions and seed (so every
// event maps to the same cells); cells then merge pairwise, which is valid
// because each cell pair summarizes time-disjoint partitions of the same
// merged substream.
func (s *Sketch) MergeAppend(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("cmpbe: cannot merge nil sketch")
	}
	if s.d != other.d || s.w != other.w {
		return fmt.Errorf("cmpbe: dimension mismatch (%d×%d vs %d×%d)", s.d, s.w, other.d, other.w)
	}
	if s.seed != other.seed {
		return fmt.Errorf("cmpbe: seed mismatch (%d vs %d)", s.seed, other.seed)
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
		if first.d != p.d || first.w != p.w {
			return nil, fmt.Errorf("cmpbe: dimension mismatch (%d×%d vs %d×%d)", first.d, first.w, p.d, p.w)
		}
		if first.seed != p.seed {
			return nil, fmt.Errorf("cmpbe: seed mismatch (%d vs %d)", first.seed, p.seed)
		}
	}
	arrays := make([][]pbe2.Builder, len(parts))
	n, maxT := int64(0), first.maxT
	for i, p := range parts {
		arrays[i] = p.cells
		n += p.n
		maxT = max(maxT, p.maxT)
	}
	cells, err := mergeCellArrays(arrays)
	if err != nil {
		return nil, err
	}
	return &Sketch{d: first.d, w: first.w, seed: first.seed, cells: cells, hf: first.hf, n: n, maxT: maxT}, nil
}

// MergeDirects is MergeSketches for collision-free summaries.
//
//histburst:fastpath MergeAppend
func MergeDirects(parts []*Direct) (*Direct, error) {
	if len(parts) == 0 || parts[0] == nil {
		return nil, fmt.Errorf("cmpbe: merge of zero summaries")
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p == nil {
			return nil, fmt.Errorf("cmpbe: cannot merge nil summary")
		}
		if len(first.cells) != len(p.cells) {
			return nil, fmt.Errorf("cmpbe: id space mismatch (%d vs %d)", len(first.cells), len(p.cells))
		}
	}
	arrays := make([][]pbe2.Builder, len(parts))
	n, maxT := int64(0), first.maxT
	for i, p := range parts {
		arrays[i] = p.cells
		n += p.n
		maxT = max(maxT, p.maxT)
	}
	cells, err := mergeCellArrays(arrays)
	if err != nil {
		return nil, err
	}
	return &Direct{cells: cells, n: n, maxT: maxT}, nil
}

// mergeCellArrays merges cell i of every source array into slot i of a fresh
// cell array; each cell's segment storage is sized exactly once by
// pbe2.MergeFinishedInto.
func mergeCellArrays(arrays [][]pbe2.Builder) ([]pbe2.Builder, error) {
	out := make([]pbe2.Builder, len(arrays[0]))
	srcs := make([]*pbe2.Builder, len(arrays))
	for c := range out {
		for k, a := range arrays {
			srcs[k] = &a[c]
		}
		if err := pbe2.MergeFinishedInto(&out[c], srcs); err != nil {
			return nil, fmt.Errorf("cmpbe: cell %d: %w", c, err)
		}
	}
	return out, nil
}

// MergeAppend absorbs a Direct summary built over a strictly later time
// range.
func (d *Direct) MergeAppend(other *Direct) error {
	if other == nil {
		return fmt.Errorf("cmpbe: cannot merge nil summary")
	}
	if len(d.cells) != len(other.cells) {
		return fmt.Errorf("cmpbe: id space mismatch (%d vs %d)", len(d.cells), len(other.cells))
	}
	for i := range d.cells {
		if err := d.cells[i].MergeAppend(&other.cells[i]); err != nil {
			return fmt.Errorf("cmpbe: direct cell %d: %w", i, err)
		}
	}
	d.n += other.n
	if other.maxT > d.maxT {
		d.maxT = other.maxT
	}
	d.bytesMemo.Store(0)
	return nil
}
