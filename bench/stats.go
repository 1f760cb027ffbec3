package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted sample: the smallest value with at least p % of the
// sample at or below it. An empty sample reports 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// nearestRank is ⌈p/100 · n⌉ clamped to [1, n]. The small tolerance keeps a
// product that is a whole number in exact arithmetic (99.9 % of 10 000) from
// being rounded up by its floating-point error.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// tailLadder is the percentiles the tail report chooses from, ascending.
var tailLadder = []float64{90, 95, 99, 99.9, 99.99}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it (so the value is not set by a handful of
// outliers) and returns it with its value; ok is false when even p90 has
// fewer than ten samples above it.
func tailPercentile(sorted []float64) (p, v float64, ok bool) {
	for _, cand := range tailLadder {
		rank := nearestRank(cand, len(sorted))
		if len(sorted)-rank < 10 {
			break
		}
		p, v, ok = cand, sorted[rank-1], true
	}
	return p, v, ok
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// quartiles returns the first quartile, median and third quartile with the
// method of Python's statistics.quantiles(values, n=4) (exclusive), which is
// what the driver uses for the spread check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// steadyPercentile is the percentile the latency metrics report: the sample,
// in completion order, is cut into up to twenty equal runs of at least fifty
// ops, the nearest-rank percentile is taken in each, and the median of those
// is returned. A disturbance that hits a minority of the runs — a seal, a
// noisy neighbour — does not move it, which a p90 over the whole sample
// cannot say; the tails it hides are reported by the traced run.
func steadyPercentile(lat []float64, p float64) float64 {
	runs := min(max(len(lat)/50, 1), 20)
	per := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		lo, hi := i*len(lat)/runs, (i+1)*len(lat)/runs
		per = append(per, percentile(sortedCopy(lat[lo:hi]), p))
	}
	return median(per)
}
