package cmpbe

import (
	"fmt"

	"histburst/internal/hash"
	"histburst/internal/pbe2"
)

// DownsampleSketches re-summarizes time-disjoint sketch parts at lower
// fidelity in one pass: per-cell error caps widen to gamma, time resolution
// coarsens to res, and the Count-Min width narrows from the source width W
// to w (w must divide W).
//
// Width narrowing is sound because the hash family draws its coefficients
// independently of the width (see hash.NewFamily): with h(x) = u(x) mod W,
// the narrower hash is h'(x) = u(x) mod w = h(x) mod w whenever w | W. So
// output cell (i, j) receives exactly the substreams of source cells
// {(i, j + m·w) : 0 ≤ m < W/w}, and the sum of those cells' cumulative
// curves is the curve the narrow sketch would have ingested directly. The
// per-part fit error of the sum is the sum of the member caps — W/w
// member cells of cap γ_src per part — so gamma must be at least
// (W/w)·γ_src (pbe2 validates this per cell part).
//
// A collision-free level keeps its width, whatever w: its id space is
// structural — the additivity of the dyadic index (F_parent = ΣF_child)
// depends on it — so only its error cap and time resolution change.
//
// Sources must be finished and are never mutated. All d·w result cells live
// in one array, mirroring MergeSketches.
func DownsampleSketches(parts []*Sketch, gamma float64, res int64, w int) (*Sketch, error) {
	if len(parts) == 0 || parts[0] == nil {
		return nil, fmt.Errorf("cmpbe: downsample of zero sketches")
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p == nil {
			return nil, fmt.Errorf("cmpbe: cannot downsample nil sketch")
		}
		if err := sameHashing(first, p); err != nil {
			return nil, err
		}
	}
	if first.CollisionFree() {
		w = first.w
	}
	if w <= 0 || first.w%w != 0 {
		return nil, fmt.Errorf("cmpbe: target width %d must positively divide source width %d", w, first.w)
	}
	group := first.w / w
	hf := first.hf
	if w != first.w {
		var err error
		if hf, err = hash.NewFamily(first.d, w, first.seed); err != nil {
			return nil, err
		}
	}
	var n, maxT int64
	for _, p := range parts {
		n += p.n
		if p.maxT > maxT {
			maxT = p.maxT
		}
	}
	cells := make([]pbe2.Builder, first.d*w)
	// One backing array for all per-cell member slices, reused across cells.
	memberBuf := make([]*pbe2.Summary, len(parts)*group)
	srcParts := make([][]*pbe2.Summary, len(parts))
	for k := range parts {
		srcParts[k] = memberBuf[k*group : (k+1)*group : (k+1)*group]
	}
	for i := 0; i < first.d; i++ {
		for j := 0; j < w; j++ {
			for k, p := range parts {
				for m := 0; m < group; m++ {
					srcParts[k][m] = p.cells[i*first.w+j+m*w].Seal()
				}
			}
			if err := pbe2.DownsampleInto(&cells[i*w+j], srcParts, gamma, res); err != nil {
				return nil, fmt.Errorf("cmpbe: cell (%d,%d): %w", i, j, err)
			}
		}
	}
	return &Sketch{d: first.d, w: w, seed: first.seed, cells: cells, hf: hf, n: n, maxT: maxT}, nil
}
