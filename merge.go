package histburst

import (
	"fmt"

	"histburst/internal/dyadic"
)

// MergeAppend absorbs a detector built over a strictly later time range of
// the same logical stream — the paper's "parallel processing on mutually
// exclusive time ranges". Both detectors must have been created with
// identical options (same sketch dimensions, seed and error cap). Both are
// finished and merged by MergeDetectors; the receiver then answers queries
// over the concatenated history exactly as if it had ingested everything
// sequentially. A refused merge leaves the receiver as it was. other should
// not be used afterwards.
func (d *Detector) MergeAppend(other *Detector) error {
	if other == nil {
		return fmt.Errorf("histburst: cannot merge nil detector")
	}
	d.Finish()
	other.Finish()
	merged, err := MergeDetectors([]*Detector{d, other})
	if err != nil {
		return err
	}
	*d = *merged
	return nil
}

// MergeDetectors builds the detector of parts concatenated: detectors over
// mutually exclusive time ranges of one logical stream, in time order. Every
// sketch cell of the result is assembled straight from the source cells'
// packed segment arrays. All detectors must share their configuration and be
// finished; sources are only read, so they may keep serving queries during
// the merge.
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
// none is nil, all share one configuration, and none holds an arrival before
// the last one of a part ahead of it. An equal timestamp may cross a
// boundary: the summaries of two parts refuse to merge only in a cell both
// counted it in. It returns a detector with the first part's configuration
// and the counters of all of them, and no summary yet, and the parts whose
// summaries make up the result's: the first and every later one that holds
// elements.
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
	for i, p := range parts[1:] {
		if p.n == 0 {
			continue // contributes nothing
		}
		c := &out.counters
		if c.started && p.minT < c.lastT {
			return nil, nil, fmt.Errorf("histburst: cannot %s part %d: its first arrival at %d precedes an earlier part's last at %d",
				verb, i+1, p.minT, c.lastT)
		}
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

// settledParts refuses a part that has taken arrivals since its last Finish.
// MergeDetectors and DownsampleDetectors never mutate their sources, so they
// can neither settle such a part — whose pending chunk would be counted in N
// and absent from the summary — nor seal its cells' open windows.
func settledParts(parts []*Detector) error {
	for i, p := range parts {
		if p.pending != nil {
			return fmt.Errorf("histburst: merge source %d not finished", i)
		}
	}
	return nil
}
