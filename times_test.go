package histburst

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// shiftedCandidates returns 0 and every breakpoint shifted by 0, τ and 2τ
// that lands in [0, horizon]: the instants a bursty time query evaluates.
func shiftedCandidates(bps []int64, tau, horizon int64) []int64 {
	out := []int64{0}
	for _, b := range bps {
		for _, v := range []int64{b, b + tau, b + 2*tau} {
			if v >= 0 && v <= horizon {
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// timesDisagreement returns an instant among cands and the ranges' Start
// and End−1 where "t is in a range" differs from "point(t) ≥ θ", or false
// when there is none.
func timesDisagreement(ranges []TimeRange, cands []int64, point func(int64) float64, theta float64) (int64, bool) {
	probes := slices.Clone(cands)
	for _, r := range ranges {
		probes = append(probes, r.Start, r.End-1)
	}
	for _, q := range probes {
		i := sort.Search(len(ranges), func(i int) bool { return ranges[i].End > q })
		in := i < len(ranges) && ranges[i].Contains(q)
		if in != (point(q) >= theta) {
			return q, true
		}
	}
	return 0, false
}

// timesStream is a mixed stream over k ids, most arrivals on a few dozen
// popular ids, with a ramping burst planted on each of ids 1…4.
func timesStream(k uint64, horizon int64) (es []uint64, ts []int64) {
	r := rand.New(rand.NewSource(21))
	for t := int64(0); t < horizon; t++ {
		for j := r.Intn(6); j > 0; j-- {
			es = append(es, uint64(r.ExpFloat64()*12)%k)
			ts = append(ts, t)
		}
		for id := int64(1); id <= 4; id++ {
			start := id * horizon / 6
			if d := t - start; d >= 0 && d < 400 && r.Int63n(400) < d {
				es = append(es, uint64(id))
				ts = append(ts, t)
			}
		}
	}
	return es, ts
}

// TestBurstyTimesAgreesWithPoint pins BURSTY TIME to POINT: at every instant
// the query evaluates, and at each range's first and last instant, t lies in
// a reported range exactly when the point query at t reaches θ — for a
// detector whose leaves are Count-Min (K > d·w, so each answer is a median
// over rows) and for a single-event summary.
func TestBurstyTimesAgreesWithPoint(t *testing.T) {
	const (
		k       = 512
		horizon = 12_000
		tau     = 150
		theta   = 40
	)
	es, ts := timesStream(k, horizon)
	det, err := New(k, WithSketchDims(5, 32), WithPBE2(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		det.Append(es[i], ts[i])
	}
	det.Finish()
	found := 0
	for e := uint64(0); e < 40; e++ {
		ranges, err := det.BurstyTimes(e, theta, tau)
		if err != nil {
			t.Fatal(err)
		}
		found += len(ranges)
		var bps []int64
		for _, c := range det.base.EventCells(e) {
			bps = append(bps, c.Breakpoints()...)
		}
		point := func(q int64) float64 {
			b, err := det.Burstiness(e, q, tau)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if q, bad := timesDisagreement(ranges, shiftedCandidates(bps, tau, det.MaxTime()), point, theta); bad {
			b := point(q)
			t.Fatalf("detector, event %d: t=%d in a range is %v, but POINT = %v against θ = %v", e, q, b < theta, b, float64(theta))
		}
	}
	if found == 0 {
		t.Fatal("no event was ever bursty; the check saw only negatives")
	}

	s, err := NewSingle(WithPBE2(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		if es[i] == 2 || es[i] == 5 {
			s.Append(ts[i])
		}
	}
	s.Finish()
	ranges, err := s.BurstyTimes(theta, tau, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) == 0 {
		t.Fatal("the single-event summary found no burst")
	}
	point := func(q int64) float64 {
		b, err := s.Burstiness(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if q, bad := timesDisagreement(ranges, shiftedCandidates(s.p.Breakpoints(), tau, horizon), point, theta); bad {
		t.Fatalf("single: t=%d in a range disagrees with POINT = %v against θ = %v", q, point(q), float64(theta))
	}
}
