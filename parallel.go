package histburst

import (
	"fmt"

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
// identical options (same sketch dimensions, seed and error cap). Both are
// flushed; the receiver then answers queries over the concatenated history
// exactly as if it had ingested everything sequentially. other should not be
// used afterwards.
func (d *Detector) MergeAppend(other *Detector) error {
	merged, live, err := gather([]*Detector{d, other}, "merge")
	if err != nil {
		return err
	}
	d.Finish()
	other.Finish()
	if len(live) == 1 {
		return nil
	}
	if err := d.tree.MergeAppend(other.tree); err != nil {
		return err
	}
	d.counters = merged.counters
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
	out, live, err := gather(parts, "merge")
	if err != nil {
		return nil, err
	}
	if err := settledParts(parts); err != nil {
		return nil, err
	}
	tree, err := dyadic.MergeTrees(trees(live))
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	out.setTree(tree)
	return out, nil
}

// gather checks parts — detectors over disjoint time ranges, in ascending
// time order — for a merge or a downsample (verb names which in the errors):
// none is nil and all share one configuration. It returns a detector with
// the first part's configuration and the counters of all of them, and no
// summary yet, and the parts whose summaries make up the result's: the first
// and every later one that holds elements.
func gather(parts []*Detector, verb string) (out *Detector, live []*Detector, err error) {
	if len(parts) == 0 || parts[0] == nil {
		return nil, nil, fmt.Errorf("histburst: %s of zero detectors", verb)
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p == nil {
			return nil, nil, fmt.Errorf("histburst: cannot %s nil detector", verb)
		}
		if first.cfg != p.cfg || first.K() != p.K() {
			return nil, nil, fmt.Errorf("histburst: configuration mismatch; partitions must share all options")
		}
	}
	out = &Detector{k: first.k, cfg: first.cfg, counters: first.counters}
	live = append(make([]*Detector, 0, len(parts)), first)
	for _, p := range parts[1:] {
		if p.n == 0 {
			continue // contributes nothing
		}
		c := &out.counters
		if !c.started && p.started {
			c.minT = p.minT
		}
		c.n += p.n
		c.maxT = max(c.maxT, p.maxT)
		c.lastT = max(c.lastT, p.lastT)
		c.started = c.started || p.started
		c.outOfOrder += p.outOfOrder
		live = append(live, p)
	}
	return out, live, nil
}

// trees returns the parts' event indexes.
func trees(parts []*Detector) []*dyadic.Tree {
	out := make([]*dyadic.Tree, len(parts))
	for i, p := range parts {
		out[i] = p.tree
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
