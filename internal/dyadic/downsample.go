package dyadic

import (
	"fmt"

	"histburst/internal/cmpbe"
)

// DownsampleTrees re-summarizes time-disjoint trees at lower fidelity: cells
// below SteerHeight widen their error cap to gamma and every level's from
// there up to SteerGammaFactor × gamma — what CMPBELevels builds under gamma,
// so the result loads, merges and downsamples again as an ordinary coarser
// tree, and a fold floor gamma ≥ (W_src/w)·γ_src that holds at the leaves
// holds at every level, both sides scaling alike — all coarsen time
// resolution to res, and Count-Min levels whose width is a multiple of w
// narrow to w. Collision-free levels keep their id space (see
// cmpbe.DownsampleSketches), and Count-Min levels whose width w does not
// divide keep their width and only widen gamma / coarsen resolution.
//
// Sources must hold finished (sealed) summaries and are never mutated.
func DownsampleTrees(parts []*Tree, gamma float64, res int64, w int) (*Tree, error) {
	if len(parts) == 0 || parts[0] == nil {
		return nil, fmt.Errorf("dyadic: downsample of zero trees")
	}
	first := parts[0]
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("dyadic: cannot downsample nil tree")
		}
		if err := sameShape(first, p); err != nil {
			return nil, err
		}
	}
	levels := make([]Level, len(first.levels))
	for i, h := range first.heights {
		srcs, err := levelsAt(parts, i)
		if err == nil {
			lw := w
			if _, sw := srcs[0].Dims(); lw < 1 || sw%lw != 0 {
				lw = sw
			}
			levels[i], err = cmpbe.DownsampleSketches(srcs, SteerGamma(h, gamma), res, lw)
		}
		if err != nil {
			return nil, fmt.Errorf("dyadic: level %d: %w", i, err)
		}
	}
	return &Tree{Index: IndexOf(first.Shape, levels), levels: levels, k: first.k}, nil
}
