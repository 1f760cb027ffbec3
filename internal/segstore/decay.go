package segstore

import (
	"fmt"

	"histburst"
)

// Time-decayed compaction: the second job of the compaction step. Where
// size-tiered compaction keeps the segment *count* logarithmic in the stream
// length, the decay pass keeps the retained *bytes* logarithmic in the
// stream's time span — old enough segments are re-summarized at the coarser
// fidelity their tier prescribes (wider γ, narrower Count-Min width, coarser
// time-resolution grid), so a tier that covers twice the history holds it in
// roughly the same footprint. The downsample kernel preserves total counts
// exactly at each source's frontier, which is what lets a decayed segment be
// decayed again when it ages into the next tier (tier promotion), and keeps
// cross-segment query sums valid: a row's cells report exact counts for any
// instant at or past their segment's MaxT, whatever the segment's width.
//
// Decay is a job of the compaction executor, rebuildOnce: candidate runs
// are picked from an immutable view, downsampled concurrently off-lock, and
// swapped in through the same manifest-rewrite generation bump (swapRun), so
// the crash story is identical — old generation or new, never a mix.

// maxDecayRun caps how many adjacent segments one decay pass folds into a
// single segment, bounding the work (and the memory of the naive twin) per
// swap. Longer runs decay in slices and coalesce at the next scan, since
// equal-fidelity neighbors of the same tier remain decay candidates.
const maxDecayRun = 8

// decayJobs returns a decay job for every run due for a deeper tier.
func (s *Store) decayJobs() []rebuild {
	runs, targets := s.pickDecayRuns(s.view.Load().segs, s.Frontier())
	jobs := make([]rebuild, len(runs))
	for i, run := range runs {
		jobs[i] = rebuild{run, decayKey(run), func() (*Segment, error) { return s.decayRun(run, targets[i]) }}
	}
	return jobs
}

// decayKey namespaces a run's no-merge marker so a run skipped for decay is
// still eligible for size-tiered merging, and vice versa.
func decayKey(run []*Segment) string { return "decay:" + runKey(run) }

// targetTier returns the deepest 1-based tier whose age threshold a segment
// of the given event-time age has reached, or 0 for none.
func (s *Store) targetTier(age int64) int {
	t := 0
	for i, tier := range s.tiers {
		if age >= tier.Age {
			t = i + 1
		}
	}
	return t
}

// pickDecayRuns returns disjoint runs of adjacent segments due for a deeper
// tier than they carry, oldest first, with each run's 1-based target tier.
// A run groups only segments bound for the same target that share their
// current fidelity (the downsample kernel requires equal source
// configurations) and splits at equal boundary timestamps (a forced
// whole-head seal can produce them; the kernel requires strictly increasing
// part boundaries — the lone segment still decays, just by itself).
// Operates on an immutable view slice, so no lock is needed.
func (s *Store) pickDecayRuns(segs []*Segment, frontier int64) (runs [][]*Segment, targets []int) {
	lo := 0
	for lo < len(segs) {
		g := segs[lo]
		target := s.targetTier(frontier - g.meta.MaxT)
		if target <= g.meta.Tier {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(segs) && hi-lo < maxDecayRun {
			h := segs[hi]
			if s.targetTier(frontier-h.meta.MaxT) != target ||
				!sameFidelity(h.meta, g.meta) ||
				h.meta.MinT <= segs[hi-1].meta.MaxT {
				break
			}
			hi++
		}
		run := segs[lo:hi]
		if !s.noMerge[decayKey(run)] {
			runs = append(runs, run)
			targets = append(targets, target)
		}
		lo = hi
	}
	return runs, targets
}

// sameFidelity reports whether two segments carry identical fidelity
// metadata — the precondition for downsampling or merging them together.
func sameFidelity(a, b SegmentMeta) bool {
	return a.Tier == b.Tier && a.Gamma == b.Gamma && a.W == b.W && a.Res == b.Res
}

// decayRun builds the run's replacement segment at the target tier's
// fidelity with the streaming downsample kernel: DownsampleDetectors reads
// the finished sources' packed arrays directly and never mutates them, so no
// clones are materialized and the originals keep serving queries throughout.
//
//histburst:fastpath decayRunNaive
func (s *Store) decayRun(run []*Segment, target int) (*Segment, error) {
	tier := s.tiers[target-1]
	dets, err := runDetectors(run)
	if err != nil {
		return nil, err
	}
	out, err := histburst.DownsampleDetectors(dets, tier.Gamma, tier.Res, tier.W)
	if err != nil {
		return nil, fmt.Errorf("to tier %d: %w", target, err)
	}
	return residentSegment(decayMeta(run, target, tier), out), nil
}

// decayMeta derives the decayed segment's manifest record: the run's united
// spans stamped with the tier's fidelity. A single never-compacted segment
// stays un-Compacted — decay changes its fidelity, not its provenance.
func decayMeta(run []*Segment, target int, tier DecayTier) SegmentMeta {
	meta := runMeta(run)
	meta.Compacted = len(run) > 1 || run[0].meta.Compacted
	meta.Tier = target
	meta.Gamma = tier.Gamma
	meta.W = tier.W
	meta.Res = tier.Res
	return meta
}
