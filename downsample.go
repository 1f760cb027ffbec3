package histburst

import (
	"fmt"

	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
)

// DownsampleDetectors builds a fresh detector summarizing time-disjoint
// parts (ascending time order) at lower fidelity: every sketch cell's PBE-2
// error cap widens to gamma, the time resolution of retained curve detail
// coarsens to res, and the Count-Min width narrows to w. This is the decay
// kernel of the segmented timeline store: as history ages past a tier
// boundary, a run of full-fidelity segments collapses into one segment that
// answers the same queries with a wider — but still two-sided and exactly
// reported — error envelope, in a fraction of the bytes.
//
// Requirements: all parts share their configuration and are finished; w
// must divide the source width W and gamma must be at least (W/w)·γ_src, the
// summed error of the source cells folded into each output cell. Total counts are preserved exactly: at and past each part's time
// frontier the downsampled curves report exact cumulative counts, which is
// what lets downsampled segments be downsampled again (tier promotion) or
// merged with equal-fidelity neighbors.
//
// The result's Params report the new gamma and width, so segments built
// from it persist and reload as ordinary (coarser) detectors. Sources are
// never mutated and may keep serving queries during the downsample.
func DownsampleDetectors(parts []*Detector, gamma float64, res int64, w int) (*Detector, error) {
	if len(parts) == 0 || parts[0] == nil {
		return nil, fmt.Errorf("histburst: downsample of zero detectors")
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p == nil {
			return nil, fmt.Errorf("histburst: cannot downsample nil detector")
		}
		if first.cfg != p.cfg || first.K() != p.K() {
			return nil, fmt.Errorf("histburst: configuration mismatch; partitions must share all options")
		}
	}
	if err := settledParts(parts); err != nil {
		return nil, err
	}
	if w <= 0 {
		w = first.cfg.w
	}
	if first.cfg.w%w != 0 {
		return nil, fmt.Errorf("histburst: target width %d must divide source width %d", w, first.cfg.w)
	}
	if minGamma := float64(first.cfg.w/w) * first.cfg.gamma; gamma < minGamma {
		return nil, fmt.Errorf("histburst: gamma %v below folded source error %v (= %d/%d × %v)",
			gamma, minGamma, first.cfg.w, w, first.cfg.gamma)
	}
	if res < 1 {
		return nil, fmt.Errorf("histburst: resolution must be at least 1, got %d", res)
	}
	out := &Detector{
		k: first.k, cfg: first.cfg,
		n: first.n, minT: first.minT, maxT: first.maxT, lastT: first.lastT,
		started: first.started, outOfOrder: first.outOfOrder,
	}
	out.cfg.gamma = gamma
	out.cfg.w = w
	live := make([]*Detector, 0, len(parts))
	live = append(live, first)
	for _, p := range parts[1:] {
		if p.n == 0 {
			continue // contributes nothing, exactly as MergeDetectors skips it
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
		tree, err := dyadic.DownsampleTrees(trees, gamma, res, w)
		if err != nil {
			return nil, fmt.Errorf("histburst: %w", err)
		}
		out.setTree(tree)
		return out, nil
	}
	base, err := cmpbe.DownsampleLevels(bases(live), gamma, res, w)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	out.base = base
	return out, nil
}
