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
// resolution to res, and sketch levels whose width is a multiple of w narrow
// to w.
// Direct levels keep their id space — additivity across siblings
// (F_parent = ΣF_child), which the pruning bound relies on, is a property
// of the id mapping and is untouched by per-cell downsampling. Sketch
// levels whose width w does not divide keep their width and only widen
// gamma / coarsen resolution.
//
// Sources must hold finished (sealed) summaries and are never mutated.
func DownsampleTrees(parts []*Tree, gamma float64, res int64, w int) (*Tree, error) {
	if len(parts) == 0 || parts[0] == nil {
		return nil, fmt.Errorf("dyadic: downsample of zero trees")
	}
	first := parts[0]
	var n, maxT int64
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("dyadic: cannot downsample nil tree")
		}
		if err := sameShape(first, p); err != nil {
			return nil, err
		}
		n += p.n
		if p.maxT > maxT {
			maxT = p.maxT
		}
	}
	levels := make([]Level, len(first.levels))
	for i := range levels {
		ds, err := downsampleLevels(parts, i, SteerGamma(first.heights[i], gamma), res, w)
		if err != nil {
			return nil, fmt.Errorf("dyadic: level %d: %w", i, err)
		}
		levels[i] = ds
	}
	return &Tree{k: first.k, lgK: first.lgK, heights: first.heights, levels: levels, n: n, maxT: maxT}, nil
}

// downsampleLevels streams level i of every tree into one lower-fidelity
// level summary.
func downsampleLevels(parts []*Tree, i int, gamma float64, res int64, w int) (Level, error) {
	switch lv := parts[0].levels[i].(type) {
	case *cmpbe.Sketch:
		srcs := make([]*cmpbe.Sketch, len(parts))
		for k, p := range parts {
			s, ok := p.levels[i].(*cmpbe.Sketch)
			if !ok {
				return nil, fmt.Errorf("level type mismatch: %T vs %T", parts[0].levels[i], p.levels[i])
			}
			srcs[k] = s
		}
		_, lw := lv.Dims()
		target := lw
		if w >= 1 && w <= lw && lw%w == 0 {
			target = w
		}
		return cmpbe.DownsampleSketches(srcs, gamma, res, target)
	case *cmpbe.Direct:
		srcs := make([]*cmpbe.Direct, len(parts))
		for k, p := range parts {
			s, ok := p.levels[i].(*cmpbe.Direct)
			if !ok {
				return nil, fmt.Errorf("level type mismatch: %T vs %T", parts[0].levels[i], p.levels[i])
			}
			srcs[k] = s
		}
		return cmpbe.DownsampleDirects(srcs, gamma, res)
	default:
		return nil, fmt.Errorf("level type %T is not downsampleable", parts[0].levels[i])
	}
}
