package histburst

import (
	"fmt"

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
	out, live, err := gather(parts, "downsample")
	if err != nil {
		return nil, err
	}
	if err := settledParts(parts); err != nil {
		return nil, err
	}
	src := out.cfg
	if w <= 0 {
		w = src.w
	}
	if src.w%w != 0 {
		return nil, fmt.Errorf("histburst: target width %d must divide source width %d", w, src.w)
	}
	if minGamma := float64(src.w/w) * src.gamma; gamma < minGamma {
		return nil, fmt.Errorf("histburst: gamma %v below folded source error %v (= %d/%d × %v)",
			gamma, minGamma, src.w, w, src.gamma)
	}
	if res < 1 {
		return nil, fmt.Errorf("histburst: resolution must be at least 1, got %d", res)
	}
	out.cfg.gamma = gamma
	out.cfg.w = w
	tree, err := dyadic.DownsampleTrees(trees(live), gamma, res, w)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	out.setTree(tree)
	return out, nil
}
