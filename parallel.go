package histburst

import (
	"fmt"

	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
)

// Element is one stream entry for bulk ingestion: an event id and its
// timestamp.
type Element struct {
	Event uint64
	Time  int64
}

// MergeAppend absorbs a detector built over a strictly later time range of
// the same logical stream — the paper's "parallel processing on mutually
// exclusive time ranges". Both detectors must have been created with
// identical options (same sketch dimensions, seed, error cap and
// event-index setting). Both are flushed; the receiver then answers queries
// over the concatenated history exactly as if it had ingested everything
// sequentially. other should not be used afterwards.
func (d *Detector) MergeAppend(other *Detector) error {
	if other == nil {
		return fmt.Errorf("histburst: cannot merge nil detector")
	}
	if d.cfg != other.cfg || d.K() != other.K() {
		return fmt.Errorf("histburst: configuration mismatch; partitions must share all options")
	}
	d.Finish()
	other.Finish()
	if other.n == 0 {
		return nil
	}
	if d.tree != nil {
		if err := d.tree.MergeAppend(other.tree); err != nil {
			return err
		}
	} else if err := cmpbe.MergeAppendLevel(d.base, other.base); err != nil {
		return err
	}
	if !d.started && other.started {
		d.minT = other.minT
	}
	d.n += other.n
	if other.maxT > d.maxT {
		d.maxT = other.maxT
	}
	if other.lastT > d.lastT {
		d.lastT = other.lastT
	}
	d.started = d.started || other.started
	d.outOfOrder += other.outOfOrder
	return nil
}

// MergeDetectors builds a fresh detector equivalent to MergeAppend-ing each
// of parts[1:] onto a clone of parts[0] in time order, without materializing
// any intermediate clones: every sketch cell of the result is assembled
// straight from the source cells' packed segment arrays, bit-identical to
// the clone+MergeAppend chain. All detectors must share their configuration
// and be finished (sealed summaries always are); sources are never mutated,
// so they may keep serving queries during the merge.
//
//histburst:fastpath MergeAppend
func MergeDetectors(parts []*Detector) (*Detector, error) {
	if len(parts) == 0 || parts[0] == nil {
		return nil, fmt.Errorf("histburst: merge of zero detectors")
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p == nil {
			return nil, fmt.Errorf("histburst: cannot merge nil detector")
		}
		if first.cfg != p.cfg || first.K() != p.K() {
			return nil, fmt.Errorf("histburst: configuration mismatch; partitions must share all options")
		}
	}
	if err := settledParts(parts); err != nil {
		return nil, err
	}
	out := &Detector{
		k: first.k, cfg: first.cfg,
		n: first.n, minT: first.minT, maxT: first.maxT, lastT: first.lastT,
		started: first.started, outOfOrder: first.outOfOrder,
	}
	live := make([]*Detector, 0, len(parts))
	live = append(live, first)
	for _, p := range parts[1:] {
		if p.n == 0 {
			continue // contributes nothing, exactly as MergeAppend skips it
		}
		if !out.started && p.started {
			out.minT = p.minT
		}
		live = append(live, p)
		out.n += p.n
		if p.maxT > out.maxT {
			out.maxT = p.maxT
		}
		if p.lastT > out.lastT {
			out.lastT = p.lastT
		}
		out.started = out.started || p.started
		out.outOfOrder += p.outOfOrder
	}
	if first.tree != nil {
		trees := make([]*dyadic.Tree, len(live))
		for i, p := range live {
			trees[i] = p.tree
		}
		tree, err := dyadic.MergeTrees(trees)
		if err != nil {
			return nil, fmt.Errorf("histburst: %w", err)
		}
		out.setTree(tree)
		return out, nil
	}
	base, err := cmpbe.MergeLevels(bases(live))
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	out.base = base
	return out, nil
}

// bases returns the detectors' standalone (index-free) base levels.
func bases(parts []*Detector) []cmpbe.Level {
	out := make([]cmpbe.Level, len(parts))
	for i, p := range parts {
		out[i] = p.base
	}
	return out
}

// settledParts refuses a part that still buffers arrivals. MergeDetectors
// and DownsampleDetectors never mutate their sources, so they cannot settle
// one, and the per-cell "not finished" guard below them cannot see it: a part
// whose elements all sit in the pending chunk has untouched cells and would
// pass — counted in N, absent from the summary.
func settledParts(parts []*Detector) error {
	for i, p := range parts {
		if len(p.pending) != 0 {
			return fmt.Errorf("histburst: merge source %d not finished", i)
		}
	}
	return nil
}

// BuildParallel constructs a Detector over a time-sorted bulk load, feeding
// the index's levels on up to workers goroutines (capped at the kept level
// count, 3 at K = 1024; Append itself uses up to GOMAXPROCS). The result is
// identical to sequential ingestion, byte for byte.
func BuildParallel(k uint64, elems []Element, workers int, opts ...Option) (*Detector, error) {
	if workers < 1 {
		return nil, fmt.Errorf("histburst: workers must be at least 1, got %d", workers)
	}
	for i := 1; i < len(elems); i++ {
		if elems[i].Time < elems[i-1].Time {
			return nil, fmt.Errorf("histburst: elements out of order at index %d", i)
		}
	}
	det, err := New(k, opts...)
	if err != nil {
		return nil, err
	}
	for _, el := range elems {
		if det.stage(el.Event, el.Time) {
			det.flush(workers)
		}
	}
	if len(det.pending) != 0 {
		det.flush(workers)
	}
	det.Finish()
	return det, nil
}
