package pbe2

import "fmt"

// MergeAppend absorbs a summary built over a strictly later time range —
// parallel construction over mutually exclusive time partitions. Both
// builders are flushed; o's segments are lifted by the receiver's
// count (a later partition counts from zero) and concatenated. Every
// per-instant guarantee (F−γ ≤ F̃ ≤ F) carries over to the merged stream
// because cumulative frequencies of time-disjoint partitions add.
func (b *Builder) MergeAppend(o *Builder) error {
	if o.gamma != b.gamma {
		return fmt.Errorf("pbe2: gamma mismatch (%v vs %v)", b.gamma, o.gamma)
	}
	b.Finish()
	o.Finish()
	if o.count == 0 {
		return nil
	}
	// other's first constraint is the virtual pin one tick before its first
	// arrival, which may legally coincide with the receiver's frontier (the
	// pinned value, once offset, is exactly the merged F there); only a
	// strictly earlier start means the partitions overlap.
	if b.started && len(o.starts) > 0 && o.firstStart < b.lastT {
		return fmt.Errorf("pbe2: time ranges overlap (receiver ends at %d, other starts at %d)",
			b.lastT, o.firstStart)
	}
	b.reserve(len(o.starts))
	b.appendLifted(o)
	b.count += o.count
	b.lastT = o.lastT
	b.prevF = b.count
	b.started = b.started || o.started
	b.done = true
	b.outOfOrder += o.outOfOrder
	b.rest()
	return nil
}

// reserve makes room for n more segments in columns of exactly that size, so
// a merge leaves its result as tight as Finish would.
func (b *Builder) reserve(n int) {
	if cap(b.starts)-len(b.starts) >= n {
		return
	}
	total := len(b.starts) + n
	b.starts = append(make([]int64, 0, total), b.starts...)
	b.lens = append(make([]uint32, 0, total), b.lens...)
	b.lines = append(make([]line, 0, total), b.lines...)
}

// appendLifted appends o's segments raised by the receiver's count: a later
// partition counts from zero.
func (b *Builder) appendLifted(o *Builder) {
	offset := float64(b.count)
	for i := range o.starts {
		s := o.seg(i)
		s.B += offset
		b.appendSegment(s)
	}
}

// MergeFinished builds a fresh summary equivalent to MergeAppend-ing each of
// parts[1:] onto a clone of parts[0], in order, without materializing any
// intermediate clones: the segment columns are allocated once at their final
// size and filled straight from the sources' columns. The
// per-segment arithmetic (one B += float64(receiver count) lift) is the same
// single float64 addition MergeAppend performs, so the result is
// bit-identical to the sequential clone+MergeAppend chain.
//
// Sources must already be finished (sealed summaries always are); they are
// never mutated.
//
//histburst:fastpath MergeAppend
func MergeFinished(parts []*Builder) (*Builder, error) {
	out := new(Builder)
	if err := MergeFinishedInto(out, parts); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeFinishedInto is MergeFinished writing into a caller-provided zero
// Builder, so batch mergers (one per sketch cell) can lay the result structs
// out in a single arena allocation instead of one heap object each.
func MergeFinishedInto(out *Builder, parts []*Builder) error {
	if len(parts) == 0 {
		return fmt.Errorf("pbe2: merge of zero summaries")
	}
	total := 0
	for i, p := range parts {
		if p.started && !p.done {
			return fmt.Errorf("pbe2: merge source %d not finished", i)
		}
		if p.gamma != parts[0].gamma {
			return fmt.Errorf("pbe2: gamma mismatch (%v vs %v)", parts[0].gamma, p.gamma)
		}
		total += len(p.starts)
	}
	first := parts[0]
	*out = Builder{
		gamma:      first.gamma,
		count:      first.count,
		lastT:      first.lastT,
		prevF:      first.prevF,
		started:    first.started,
		done:       first.done,
		outOfOrder: first.outOfOrder,
	}
	out.reserve(total)
	for i := range first.starts {
		out.appendSegment(first.seg(i))
	}
	for _, p := range parts[1:] {
		if p.count == 0 {
			continue
		}
		if out.started && len(p.starts) > 0 && p.firstStart < out.lastT {
			return fmt.Errorf("pbe2: time ranges overlap (receiver ends at %d, other starts at %d)",
				out.lastT, p.firstStart)
		}
		out.appendLifted(p)
		out.count += p.count
		out.lastT = p.lastT
		out.prevF = out.count
		out.started = out.started || p.started
		out.done = true
		out.outOfOrder += p.outOfOrder
	}
	out.rest()
	return nil
}
