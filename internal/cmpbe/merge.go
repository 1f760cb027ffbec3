package cmpbe

import (
	"fmt"

	"histburst/internal/pbe"
	"histburst/internal/pbe2"
)

// mergeAppender is the per-cell merge capability (implemented by both PBE
// builders).
type mergeAppender interface {
	MergeAppend(other pbe.PBE) error
}

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
	for i := range s.cells {
		for j := range s.cells[i] {
			m, ok := s.cells[i][j].(mergeAppender)
			if !ok {
				return fmt.Errorf("cmpbe: cell type %T is not mergeable", s.cells[i][j])
			}
			if err := m.MergeAppend(other.cells[i][j]); err != nil {
				return fmt.Errorf("cmpbe: cell (%d,%d): %w", i, j, err)
			}
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
// pbe2.MergeFinished, and all d·w result builders live in one arena
// allocation. Only PBE-2 cells are stream-mergeable (PBE-1's buffering makes
// packed-array concatenation inapplicable); sources must be finished and are
// never mutated. Cell arithmetic is bit-identical to the MergeAppend chain.
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
	arrays := make([][]pbe.PBE, len(parts))
	var n, maxT int64 = first.n, first.maxT
	arrays[0] = first.flat
	for i, p := range parts[1:] {
		arrays[i+1] = p.flat
		n += p.n
		if p.maxT > maxT {
			maxT = p.maxT
		}
	}
	flat, err := mergeCellArrays(arrays)
	if err != nil {
		return nil, err
	}
	return newSketch(first.d, first.w, first.seed, first.hf, flat, n, maxT), nil
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
	arrays := make([][]pbe.PBE, len(parts))
	var n, maxT int64 = first.n, first.maxT
	arrays[0] = first.cells
	for i, p := range parts[1:] {
		arrays[i+1] = p.cells
		n += p.n
		if p.maxT > maxT {
			maxT = p.maxT
		}
	}
	cells, err := mergeCellArrays(arrays)
	if err != nil {
		return nil, err
	}
	return &Direct{cells: cells, n: n, maxT: maxT}, nil
}

// mergeCellArrays merges cell i of every source array into slot i of a fresh
// cell array. All result builders are laid out in one arena allocation; each
// cell's segment storage is sized exactly once by pbe2.MergeFinishedInto.
func mergeCellArrays(arrays [][]pbe.PBE) ([]pbe.PBE, error) {
	cellCount := len(arrays[0])
	arena, out := arenaCells(cellCount)
	srcs := make([]*pbe2.Builder, len(arrays))
	for c := 0; c < cellCount; c++ {
		for k, a := range arrays {
			b, ok := a[c].(*pbe2.Builder)
			if !ok {
				return nil, fmt.Errorf("cmpbe: cell type %T is not stream-mergeable", a[c])
			}
			srcs[k] = b
		}
		if err := pbe2.MergeFinishedInto(&arena[c], srcs); err != nil {
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
		m, ok := d.cells[i].(mergeAppender)
		if !ok {
			return fmt.Errorf("cmpbe: cell type %T is not mergeable", d.cells[i])
		}
		if err := m.MergeAppend(other.cells[i]); err != nil {
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
