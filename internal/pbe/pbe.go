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

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Estimator is the read side of a burstiness summary: anything that can
// evaluate an approximate cumulative-frequency curve and enumerate the
// instants where its shape changes. The single-stream PBEs, PBE-1 and
// PBE-2, satisfy it; a sketch or a store answers through its point query
// instead, so no median-of-rows F̃ curve is ever built.
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

// Burstiness evaluates b̃(t) over span sp on any PBE via equation (2).
// Estimators implementing Estimator3 answer the three evaluations in one
// narrowed pass; the result is identical either way.
func Burstiness(p Estimator, t int64, sp Span) float64 {
	t0, t1, t2 := sp.Instants(t)
	if e3, ok := p.(Estimator3); ok {
		f0, f1, f2 := e3.Estimate3(t0, t1, t2)
		return f2 - 2*f1 + f0
	}
	return p.Estimate(t2) - 2*p.Estimate(t1) + p.Estimate(t0)
}

// BurstFrequency evaluates the approximate incoming rate bf̃(t) = F̃(t) − F̃(t−τ).
func BurstFrequency(p Estimator, t int64, sp Span) float64 {
	_, t1, t2 := sp.Instants(t)
	return p.Estimate(t2) - p.Estimate(t1)
}

// Span is a burst span τ > 0. Only NewSpan builds one, so the query kernels
// take a Span instead of a raw τ and none re-checks it. It yields the
// instants of equation (2) saturated at the int64 bounds — τ comes off the
// wire, and a wrapped t−2τ would land past t. The zero Span's three instants
// coincide, so every kernel answers b̃ = 0 on it, never a wrapped window.
type Span struct{ tau int64 }

// NewSpan returns the span τ, refusing τ ≤ 0.
func NewSpan(tau int64) (Span, error) {
	if tau <= 0 {
		return Span{}, fmt.Errorf("burst span must be positive, got %d", tau)
	}
	return Span{tau}, nil
}

// MustSpan is NewSpan for a τ known to be positive; it panics otherwise.
func MustSpan(tau int64) Span {
	sp, err := NewSpan(tau)
	if err != nil {
		panic(err)
	}
	return sp
}

// Instants returns t−2τ, t−τ and t, the instants of equation (2), ascending.
// τ ≥ 0, so a difference can only wrap upward, past its minuend.
//
//histburst:noalloc
func (s Span) Instants(t int64) (t0, t1, t2 int64) {
	if t1 = t - s.tau; t1 > t {
		t1 = math.MinInt64
	}
	if t0 = t1 - s.tau; t0 > t1 {
		t0 = math.MinInt64
	}
	return t0, t1, t
}

// The threshold θ has one rule per query class, the two side by side here.

// CheckEventsTheta refuses a BURSTY EVENT threshold, searched or standing,
// that is not positive: the walk's pruning bound compares squares, and a NaN
// θ compares below nothing, so it would prune nothing (and a standing query
// would fire once on any traffic and never again).
func CheckEventsTheta(theta float64) error {
	if !(theta > 0) {
		return fmt.Errorf("threshold must be positive, got %v", theta)
	}
	return nil
}

// CheckTimesTheta refuses a NaN BURSTY TIME threshold; θ ≤ 0 is a legitimate
// threshold for a scan.
func CheckTimesTheta(theta float64) error {
	if math.IsNaN(theta) {
		return errors.New("threshold must be a number, got NaN")
	}
	return nil
}

// addSat returns a+b for b ≥ 0, saturated at math.MaxInt64.
func addSat(a, b int64) int64 {
	if d := a + b; d >= a {
		return d
	}
	return math.MaxInt64
}

// TimeRange is a half-open interval [Start, End).
type TimeRange struct {
	Start, End int64
}

// Contains reports whether t lies in the range.
func (r TimeRange) Contains(t int64) bool { return t >= r.Start && t < r.End }

// BurstyTimes answers the BURSTY TIME QUERY q(e, θ, τ) over a summary
// (Section V): burst is the summary's point query at span sp, bps the sorted
// instants where its F̃ changes shape. BurstyTimes evaluates burst only at
// bps shifted by {0, τ, 2τ} — the instants where b̃ can change — and
// returns the maximal intervals within [0, horizon] (horizon inclusive)
// where b̃(t) ≥ θ. Every answer is the point query's answer at the instant.
//
// For a PBE-1 summary the estimate is piecewise constant, so the result is
// exact with respect to the summary. For a PBE-2 summary it is piecewise
// linear, so b̃ is piecewise linear too; BurstyTimes additionally solves for
// threshold crossings inside each piece, making the result exact with
// respect to the summary there as well. Over a sketch, whose b̃ is a median
// of rows, the median may switch rows between candidate instants, so the
// crossing refinement is heuristic there; the candidate instants themselves
// are still evaluated exactly.
func BurstyTimes(bps []int64, burst func(t int64) float64, theta float64, sp Span, horizon int64) []TimeRange {
	cands := ShiftedBreakpoints(bps, sp, horizon)
	out := []TimeRange{} // never nil: no range encodes as a JSON [], not null
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
	for i, t0 := range cands {
		t1 := horizon + 1
		if i+1 < len(cands) {
			t1 = cands[i+1]
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
// where b̃ can change: each of the breakpoints base shifted by 0, τ and 2τ,
// plus 0. base is sorted (an unsorted one is sorted first), so the three
// shifted copies are three sorted streams; a 3-way merge with on-the-fly
// deduplication builds the result without the map+sort round-trip the naive
// union needs.
func ShiftedBreakpoints(base []int64, sp Span, horizon int64) []int64 {
	if !slices.IsSorted(base) {
		base = slices.Clone(base)
		slices.Sort(base)
	}
	// within returns the breakpoints whose shift by k·τ lands in
	// [0, horizon], found on the saturated shift (monotone in b). Inside
	// that range b + k·τ is exact even where k·τ itself wraps.
	within := func(k int) []int64 {
		shift := func(i int) int64 {
			v := base[i]
			for range k {
				v = addSat(v, sp.tau)
			}
			return v
		}
		lo := sort.Search(len(base), func(i int) bool { return shift(i) >= 0 })
		hi := sort.Search(len(base), func(i int) bool { return shift(i) > horizon })
		return base[lo:max(lo, hi)]
	}
	s0, s1, s2 := within(0), within(1), within(2)
	o1, o2 := sp.tau, 2*sp.tau
	out := make([]int64, 1, len(s0)+len(s1)+len(s2)+1) // out[0] = 0
	for len(s0)+len(s1)+len(s2) > 0 {
		// v is the least head; math.MaxInt64 stands in for an empty stream
		// and, when a head holds it, is that head.
		v := int64(math.MaxInt64)
		if len(s0) > 0 {
			v = s0[0]
		}
		if len(s1) > 0 && s1[0]+o1 < v {
			v = s1[0] + o1
		}
		if len(s2) > 0 && s2[0]+o2 < v {
			v = s2[0] + o2
		}
		for len(s0) > 0 && s0[0] == v {
			s0 = s0[1:]
		}
		for len(s1) > 0 && s1[0]+o1 == v {
			s1 = s1[1:]
		}
		for len(s2) > 0 && s2[0]+o2 == v {
			s2 = s2[1:]
		}
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// MergeSorted merges sorted int64 lists into one sorted deduplicated list by
// rounds of pairwise merges — O(total · log len(lists)) against the
// scan-every-list-per-output mergeSortedNaive it replaced. Each round reads
// the previous round's lists and writes the next into the other of the two
// scratch buffers; lists is reordered in place. The result is freshly
// allocated (callers keep it), the buffers are not.
//
//histburst:fastpath mergeSortedNaive
func MergeSorted(lists [][]int64, bufs *[2][]int64) []int64 {
	total, n := 0, 0
	for _, l := range lists {
		if len(l) > 0 {
			lists[n] = l
			n++
			total += len(l)
		}
	}
	if total == 0 {
		return nil
	}
	lists = lists[:n]
	for round := 0; len(lists) > 1; round++ {
		buf := bufs[round&1]
		if cap(buf) < total {
			buf = make([]int64, 0, total)
			bufs[round&1] = buf
		}
		buf = buf[:0]
		n = 0
		for i := 0; i < len(lists); i += 2 {
			var b []int64
			if i+1 < len(lists) {
				b = lists[i+1]
			}
			start := len(buf)
			buf = mergeTwo(buf, lists[i], b)
			lists[n] = buf[start:len(buf):len(buf)]
			n++
		}
		lists = lists[:n]
	}
	// The copy out of scratch is also the dedupe a lone list still owes.
	return mergeTwo(make([]int64, 0, len(lists[0])), lists[0], nil)
}

// mergeTwo appends the sorted deduplicated union of sorted a and b to dst.
func mergeTwo(dst, a, b []int64) []int64 {
	first := len(dst)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int64
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			v = a[i]
			i++
		} else {
			v = b[j]
			j++
		}
		if len(dst) == first || dst[len(dst)-1] != v {
			dst = append(dst, v)
		}
	}
	return dst
}
