// Package pbe defines the common interface implemented by both persistent
// burstiness estimators (PBE-1 and PBE-2) and shared helpers built on it.
//
// A PBE summarizes a single-event stream — an ordered sequence of
// timestamps — into a compact approximation F̃(t) of the cumulative
// frequency curve F(t) that (a) never overestimates F and (b) supports
// evaluation at any historical time instance. Burstiness estimation for any
// burst span τ then follows from the identity
//
//	b(t) = F(t) − 2·F(t−τ) + F(t−2τ)     (paper, equation 1)
//
// evaluated on the approximation (equation 2).
package pbe

import "slices"

// Estimator is the read side of a burstiness summary: anything that can
// evaluate an approximate cumulative-frequency curve and enumerate the
// instants where its shape changes. Both single-stream PBEs and per-event
// views of a CM-PBE satisfy it.
type Estimator interface {
	// Estimate returns F̃(t), the approximate cumulative frequency at t.
	Estimate(t int64) float64

	// Breakpoints returns the sorted time instants at which F̃ changes
	// shape (corner/segment starts). Burstiness over the summary is
	// piecewise simple between consecutive breakpoints, which is what makes
	// the bursty-time query linear in the summary size.
	Breakpoints() []int64
}

// PBE is a persistent burstiness estimator over a single event stream.
//
// Append timestamps in non-decreasing order, call Finish once after the last
// one, then query freely. Implementations must tolerate queries before
// Finish by including any buffered tail exactly.
type PBE interface {
	Estimator

	// Append ingests one arrival at time t. Timestamps must be
	// non-decreasing; implementations may panic or degrade on violations
	// (the exported facade validates).
	Append(t int64)

	// Finish flushes internal buffers. Idempotent. Appending after Finish
	// is allowed and starts a new buffered tail.
	Finish()

	// Count returns the number of arrivals ingested so far.
	Count() int64

	// Bytes returns the summary's footprint in bytes: the payload its
	// arrays hold (curve points for PBE-1, segment columns for PBE-2) — the
	// space cost the experiments report, and the part that grows with the
	// history. It does not count the summary's own struct, a fixed cost a
	// sketch pays once per cell.
	Bytes() int
}

// Burstiness evaluates b̃(t) for burst span τ on any PBE via equation (2).
// Estimators implementing Estimator3 answer the three evaluations in one
// narrowed pass; the result is identical either way.
func Burstiness(p Estimator, t, tau int64) float64 {
	if e3, ok := p.(Estimator3); ok && tau > 0 {
		f0, f1, f2 := e3.Estimate3(t-2*tau, t-tau, t)
		return f2 - 2*f1 + f0
	}
	return p.Estimate(t) - 2*p.Estimate(t-tau) + p.Estimate(t-2*tau)
}

// BurstFrequency evaluates the approximate incoming rate bf̃(t) = F̃(t) − F̃(t−τ).
func BurstFrequency(p Estimator, t, tau int64) float64 {
	return p.Estimate(t) - p.Estimate(t-tau)
}

// TimeRange is a half-open interval [Start, End).
type TimeRange struct {
	Start, End int64
}

// Contains reports whether t lies in the range.
func (r TimeRange) Contains(t int64) bool { return t >= r.Start && t < r.End }

// BurstyTimes answers the BURSTY TIME QUERY q(e, θ, τ) over a PBE summary
// (Section V): it evaluates b̃ only at the union of the summary's
// breakpoints shifted by {0, τ, 2τ} — the instants where b̃ can change —
// and returns the maximal intervals where b̃(t) ≥ θ. horizon is the last
// time instant considered (inclusive).
//
// For PBE-1 the estimate is piecewise constant, so the result is exact with
// respect to the summary. For PBE-2 the estimate is piecewise linear, so b̃
// is piecewise linear too; BurstyTimes additionally solves for threshold
// crossings inside each piece, making the result exact with respect to the
// summary there as well.
func BurstyTimes(p Estimator, theta float64, tau, horizon int64) []TimeRange {
	bps := ShiftedBreakpoints(p, tau, horizon)
	if len(bps) == 0 {
		return nil
	}
	// Three cursors, one per shifted term of equation (2): the scan sweeps t
	// upward, so each cursor sees an (almost) ascending probe sequence and
	// amortizes its segment lookup to O(1) per step. The crossing refinement
	// probes backward inside one piece; cursors stay correct there, just not
	// amortized.
	c0, c1, c2 := CursorFor(p), CursorFor(p), CursorFor(p)
	burst := func(t int64) float64 {
		return c0.Estimate(t) - 2*c1.Estimate(t-tau) + c2.Estimate(t-2*tau)
	}
	var out []TimeRange
	emit := func(start, end int64) {
		if start >= end {
			return
		}
		if len(out) > 0 && out[len(out)-1].End == start {
			out[len(out)-1].End = end
			return
		}
		out = append(out, TimeRange{Start: start, End: end})
	}
	for i, t0 := range bps {
		t1 := horizon + 1
		if i+1 < len(bps) {
			t1 = bps[i+1]
		}
		b0 := burst(t0)
		if t1 == t0+1 {
			if b0 >= theta {
				emit(t0, t1)
			}
			continue
		}
		// Within (t0, t1) the estimate of each of the three terms is linear
		// (or constant), so b̃ is linear; evaluate at both ends and solve
		// the crossing if they straddle θ.
		bLast := burst(t1 - 1)
		switch {
		case b0 >= theta && bLast >= theta:
			emit(t0, t1)
		case b0 < theta && bLast < theta:
			// Linear between the ends: no interior excursion possible.
		default:
			// One crossing inside [t0, t1−1]; binary search for it using
			// monotonicity of the linear piece.
			lo, hi := t0, t1-1
			rising := bLast >= theta
			for lo < hi {
				mid := lo + (hi-lo)/2
				bm := burst(mid)
				if (bm >= theta) == rising {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if rising {
				emit(lo, t1)
			} else {
				emit(t0, lo)
			}
		}
	}
	return out
}

// ShiftedBreakpoints returns the sorted distinct instants in [0, horizon]
// where b̃ can change: each summary breakpoint shifted by 0, τ and 2τ,
// plus 0. Breakpoints() is already sorted, so the three shifted copies are
// three sorted streams; a 3-way merge with on-the-fly deduplication builds
// the result without the map+sort round-trip the naive union needs.
func ShiftedBreakpoints(p Estimator, tau, horizon int64) []int64 {
	base := p.Breakpoints()
	// The Estimator contract promises sorted breakpoints; guard against a
	// non-conforming implementation rather than silently merging garbage.
	for i := 1; i < len(base); i++ {
		if base[i] < base[i-1] {
			sorted := append([]int64(nil), base...)
			slices.Sort(sorted)
			base = sorted
			break
		}
	}
	shifts := [3]int64{0, tau, 2 * tau}
	var idx [3]int
	out := make([]int64, 0, 3*len(base)+1)
	out = append(out, 0)
	for {
		var best int64
		found := false
		for s := range shifts {
			// Values below 0 are skipped; once a value exceeds the horizon
			// the rest of that (sorted) stream does too.
			for idx[s] < len(base) && base[idx[s]]+shifts[s] < 0 {
				idx[s]++
			}
			if idx[s] >= len(base) {
				continue
			}
			v := base[idx[s]] + shifts[s]
			if v > horizon {
				idx[s] = len(base)
				continue
			}
			if !found || v < best {
				best, found = v, true
			}
		}
		if !found {
			break
		}
		if best != out[len(out)-1] {
			out = append(out, best)
		}
		for s := range shifts {
			for idx[s] < len(base) && base[idx[s]]+shifts[s] == best {
				idx[s]++
			}
		}
	}
	return out
}
