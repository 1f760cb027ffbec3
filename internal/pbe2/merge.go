package pbe2

import "fmt"

// MergeFinished builds the summary of parts concatenated — sealed summaries
// over mutually exclusive time ranges, in time order: the paper's parallel
// construction over time partitions. Each later part's segments are lifted
// by the count of all before it (a later partition counts from zero) and
// appended, one addition a segment (appendLifted), as a builder appends
// its own, and the columns are clipped to their size at the end. Every per-instant guarantee
// (F−γ ≤ F̃ ≤ F) carries over to the merged stream because cumulative
// frequencies of time-disjoint partitions add. The parts are only read.
func MergeFinished(parts []*Summary) (*Builder, error) {
	out := new(Builder)
	if err := MergeFinishedInto(out, parts); err != nil {
		return nil, err
	}
	out.clip()
	return out, nil
}

// MergeFinishedInto is MergeFinished writing into a caller-provided Builder,
// so batch mergers (one per sketch cell) can lay the result structs out in a
// single arena allocation instead of one heap object each, and their columns
// in another: out's columns keep their room to spare until Lay lays its
// level. out is written only when the merge succeeds.
func MergeFinishedInto(out *Builder, parts []*Summary) error {
	if len(parts) == 0 {
		return fmt.Errorf("pbe2: merge of zero summaries")
	}
	for _, p := range parts {
		if p.gamma != parts[0].gamma {
			return fmt.Errorf("pbe2: gamma mismatch (%v vs %v)", parts[0].gamma, p.gamma)
		}
	}
	first := parts[0]
	s := Summary{
		gamma:      first.gamma,
		count:      first.count,
		lastT:      first.lastT,
		prevF:      first.prevF,
		outOfOrder: first.outOfOrder,
	}
	for i := range first.n {
		s.appendLifted(first, i, 0)
	}
	for _, p := range parts[1:] {
		if p.count == 0 {
			continue
		}
		// A part's first constraint is the virtual pin one tick before its
		// first arrival, which may legally coincide with the frontier before
		// it (the pinned value, once offset, is exactly the merged F there);
		// only a strictly earlier start means the partitions overlap.
		if s.count > 0 && p.firstStart < s.lastT {
			return fmt.Errorf("pbe2: time ranges overlap (receiver ends at %d, other starts at %d)",
				s.lastT, p.firstStart)
		}
		for i := range p.n {
			s.appendLifted(p, i, s.count)
		}
		s.count += p.count
		s.lastT = p.lastT
		s.prevF = s.count
		s.outOfOrder += p.outOfOrder
	}
	*out = Builder{summary: s}
	out.rest()
	return nil
}

// appendLifted appends p's i-th segment raised by offset counts. The lift
// is a float64 addition, exact for a grid value below 2⁴⁴ counts, and the
// lifted segment is stored as appendSegment stores any: a wider y field, or
// float64 values in a cell the lift carries past the grid's ±2⁵⁵ counts.
func (s *Summary) appendLifted(p *Summary, i int, offset int64) {
	seg := p.seg(i)
	seg.Y += float64(offset)
	s.appendSegment(seg)
}
