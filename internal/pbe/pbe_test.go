package pbe

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// stepEstimator is a synthetic piecewise-constant estimator for exercising
// the query helpers in isolation: F̃(t) = value of the last step at or
// before t.
type stepEstimator struct {
	steps []struct {
		t int64
		f float64
	}
}

func newStepEstimator(pairs ...int64) *stepEstimator {
	e := &stepEstimator{}
	for i := 0; i+1 < len(pairs); i += 2 {
		e.steps = append(e.steps, struct {
			t int64
			f float64
		}{pairs[i], float64(pairs[i+1])})
	}
	return e
}

func (e *stepEstimator) Estimate(t int64) float64 {
	v := 0.0
	for _, s := range e.steps {
		if s.t > t {
			break
		}
		v = s.f
	}
	return v
}

func (e *stepEstimator) Breakpoints() []int64 {
	out := make([]int64, len(e.steps))
	for i, s := range e.steps {
		out[i] = s.t
	}
	return out
}

// burstyTimes sweeps e's point query over e's breakpoints, as every summary
// answers the bursty time query.
func burstyTimes(e Estimator, theta float64, tau, horizon int64) []TimeRange {
	sp := MustSpan(tau)
	return BurstyTimes(e.Breakpoints(), func(q int64) float64 { return Burstiness(e, q, sp) }, theta, sp, horizon)
}

func TestBurstinessIdentity(t *testing.T) {
	e := newStepEstimator(0, 0, 10, 5, 20, 30, 30, 35)
	// b(t) = F(t) − 2F(t−τ) + F(t−2τ); τ=10.
	got := Burstiness(e, 25, MustSpan(10))
	want := e.Estimate(25) - 2*e.Estimate(15) + e.Estimate(5)
	if got != want {
		t.Fatalf("Burstiness = %v, want %v", got, want)
	}
	if bf := BurstFrequency(e, 25, MustSpan(10)); bf != e.Estimate(25)-e.Estimate(15) {
		t.Fatalf("BurstFrequency = %v", bf)
	}
}

func TestTimeRangeContains(t *testing.T) {
	r := TimeRange{Start: 5, End: 8}
	for q, want := range map[int64]bool{4: false, 5: true, 7: true, 8: false} {
		if got := r.Contains(q); got != want {
			t.Errorf("Contains(%d) = %v", q, want)
		}
	}
}

func TestShiftedBreakpoints(t *testing.T) {
	e := newStepEstimator(3, 1, 7, 4)
	got := ShiftedBreakpoints(e.Breakpoints(), MustSpan(5), 20)
	want := []int64{0, 3, 7, 8, 12, 13, 17}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ShiftedBreakpoints = %v, want %v", got, want)
	}
	// Horizon clipping.
	got = ShiftedBreakpoints(e.Breakpoints(), MustSpan(5), 9)
	want = []int64{0, 3, 7, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clipped = %v, want %v", got, want)
	}
}

func TestBurstyTimesMatchesBruteForce(t *testing.T) {
	// Step curve with a burst: flat, then a sharp rise, then flat again.
	e := newStepEstimator(0, 0, 10, 10, 20, 20, 30, 90, 40, 100, 60, 101)
	horizon := int64(80)
	for _, tau := range []int64{5, 10, 17} {
		for _, theta := range []float64{1, 20, 55, 1000} {
			ranges := burstyTimes(e, theta, tau, horizon)
			for q := int64(0); q <= horizon; q++ {
				want := Burstiness(e, q, MustSpan(tau)) >= theta
				got := false
				for _, r := range ranges {
					if r.Contains(q) {
						got = true
						break
					}
				}
				if got != want {
					t.Fatalf("τ=%d θ=%v t=%d: in-range=%v want %v", tau, theta, q, got, want)
				}
			}
			// Ranges must be sorted, disjoint and non-empty.
			for i, r := range ranges {
				if r.Start >= r.End {
					t.Fatalf("degenerate range %+v", r)
				}
				if i > 0 && r.Start < ranges[i-1].End {
					t.Fatalf("overlapping ranges %v", ranges)
				}
			}
		}
	}
}

func TestBurstyTimesEmptyEstimator(t *testing.T) {
	e := &stepEstimator{}
	ranges := burstyTimes(e, 1, 5, 100)
	if len(ranges) != 0 {
		t.Fatalf("empty estimator returned %v", ranges)
	}
	// θ below zero matches everything (b̃ ≡ 0 ≥ θ).
	ranges = burstyTimes(e, -1, 5, 10)
	if len(ranges) != 1 || ranges[0].Start != 0 || ranges[0].End != 11 {
		t.Fatalf("always-true query = %v", ranges)
	}
}

// linEstimator is piecewise linear, for the crossing-refinement path.
type linEstimator struct{}

func (linEstimator) Estimate(t int64) float64 {
	switch {
	case t < 0:
		return 0
	case t <= 100:
		return float64(t) // slope 1
	default:
		return 100
	}
}
func (linEstimator) Breakpoints() []int64 { return []int64{0, 101} }

func TestBurstyTimesLinearCrossing(t *testing.T) {
	// With F̃ linear of slope 1 on [0,100] then flat: for τ=10,
	// b(t) = F(t) − 2F(t−10) + F(t−20). For t in [0,10): b = t (ramp-in);
	// t in [10,20): b = t − 2(t−10) = 20 − t; t in [20,100]: 0.
	e := linEstimator{}
	ranges := burstyTimes(e, 5, 10, 150)
	// b ≥ 5 ⟺ t in [5, 15].
	if len(ranges) != 1 {
		t.Fatalf("ranges = %v", ranges)
	}
	if ranges[0].Start != 5 || ranges[0].End != 16 {
		t.Fatalf("crossing refinement wrong: %v (want [5,16))", ranges[0])
	}
	// Verify against brute force.
	for q := int64(0); q <= 150; q++ {
		want := Burstiness(e, q, MustSpan(10)) >= 5
		got := ranges[0].Contains(q)
		if got != want {
			t.Fatalf("t=%d: %v want %v", q, got, want)
		}
	}
}

func TestBreakpointHelpersSorted(t *testing.T) {
	e := newStepEstimator(9, 1, 3, 2) // deliberately unsorted steps input
	bps := ShiftedBreakpoints(e.Breakpoints(), MustSpan(2), 100)
	if !sort.SliceIsSorted(bps, func(i, j int) bool { return bps[i] < bps[j] }) {
		t.Fatal("ShiftedBreakpoints not sorted")
	}
}

// TestSpanSaturates pins the instants of equation (2) at the int64 bounds:
// a wrapped t−2τ would land past t. A span is built from τ > 0 only.
func TestSpanSaturates(t *testing.T) {
	for _, tc := range []struct{ t, tau, t0, t1 int64 }{
		{1000, 10, 980, 990},
		{2000, 1 << 40, 2000 - 1<<41, 2000 - 1<<40},
		{2000, 3 << 61, math.MinInt64, 2000 - 3<<61},
		{2000, math.MaxInt64, math.MinInt64, 2001 + math.MinInt64},
		{math.MinInt64 + 5, 10, math.MinInt64, math.MinInt64},
		{math.MaxInt64, math.MaxInt64, -math.MaxInt64, 0},
	} {
		sp, err := NewSpan(tc.tau)
		if err != nil {
			t.Fatal(err)
		}
		if t0, t1, t2 := sp.Instants(tc.t); t0 != tc.t0 || t1 != tc.t1 || t2 != tc.t {
			t.Errorf("τ=%d: Instants(%d) = (%d, %d, %d), want (%d, %d, %d)", tc.tau, tc.t, t0, t1, t2, tc.t0, tc.t1, tc.t)
		}
	}
	for _, tau := range []int64{0, -1, math.MinInt64} {
		if _, err := NewSpan(tau); err == nil || err.Error() != fmt.Sprintf("burst span must be positive, got %d", tau) {
			t.Errorf("NewSpan(%d) = %v, want a refusal", tau, err)
		}
	}
	// Shifting by a huge τ adds nothing inside the horizon.
	bps := []int64{3, 7, 1000}
	for _, tau := range []int64{1 << 40, 3 << 61, math.MaxInt64} {
		if got, want := ShiftedBreakpoints(bps, MustSpan(tau), 2000), []int64{0, 3, 7, 1000}; !reflect.DeepEqual(got, want) {
			t.Errorf("τ=%d: ShiftedBreakpoints = %v, want %v", tau, got, want)
		}
	}
}

// TestZeroSpan: the zero Span's three instants coincide, at the int64
// bounds too, so equation (2) answers 0 — never a wrapped window. (cmpbe's
// TestBurstinessMatchesNaive covers it through Estimate3.)
func TestZeroSpan(t *testing.T) {
	var sp Span
	e := newStepEstimator(3, 7, 7, 20)
	for _, ts := range []int64{math.MinInt64, -5, 0, 7, 8, 25, math.MaxInt64} {
		if t0, t1, t2 := sp.Instants(ts); t0 != ts || t1 != ts || t2 != ts {
			t.Errorf("zero Span: Instants(%d) = (%d, %d, %d)", ts, t0, t1, t2)
		}
		if b, bf := Burstiness(e, ts, sp), BurstFrequency(e, ts, sp); b != 0 || bf != 0 {
			t.Errorf("zero Span at %d: b = %v, bf = %v, want 0", ts, b, bf)
		}
	}
}

// TestThetaRules pins the two threshold rules, one a checked type: BURSTY
// EVENT needs θ > 0, BURSTY TIME refuses only NaN, and an accepted θ is kept
// as given.
func TestThetaRules(t *testing.T) {
	for _, tc := range []struct {
		theta         float64
		events, times string
	}{
		{1.5, "", ""},
		{math.Inf(1), "", ""},
		{0, "threshold must be positive, got 0", ""},
		{-2, "threshold must be positive, got -2", ""},
		{math.Inf(-1), "threshold must be positive, got -Inf", ""},
		{math.NaN(), "threshold must be positive, got NaN", "threshold must be a number, got NaN"},
	} {
		ev, evErr := NewEventsTheta(tc.theta)
		tm, tmErr := NewTimesTheta(tc.theta)
		for _, c := range []struct {
			kept float64
			err  error
			want string
		}{{ev.Float(), evErr, tc.events}, {tm.Float(), tmErr, tc.times}} {
			if got := fmt.Sprint(c.err); (c.want == "" && c.err != nil) || (c.want != "" && got != c.want) {
				t.Errorf("θ=%v: %v, want %q", tc.theta, c.err, c.want)
			}
			if c.err == nil && c.kept != tc.theta {
				t.Errorf("θ=%v kept as %v", tc.theta, c.kept)
			}
		}
	}
}

// mergeSortedNaive is the retained twin of MergeSorted: every emitted value
// rescans every list, twice.
func mergeSortedNaive(lists [][]int64) []int64 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]int64, 0, total)
	idx := make([]int, len(lists))
	for {
		var best int64
		found := false
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if v := l[idx[i]]; !found || v < best {
				best, found = v, true
			}
		}
		if !found {
			return out
		}
		if len(out) == 0 || out[len(out)-1] != best {
			out = append(out, best)
		}
		for i, l := range lists {
			for idx[i] < len(l) && l[idx[i]] == best {
				idx[i]++
			}
		}
	}
}

func TestMergeSortedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var bufs [2][]int64 // reused across cases, as callers' pooled scratch is
	for trial := 0; trial < 400; trial++ {
		lists := make([][]int64, rng.Intn(12))
		for i := range lists {
			v := rng.Int63n(50) - 25
			for j := rng.Intn(9); j > 0; j-- {
				lists[i] = append(lists[i], v)
				v += rng.Int63n(4) // zero steps: duplicates inside a list
			}
		}
		want := mergeSortedNaive(lists)
		got := MergeSorted(append([][]int64(nil), lists...), &bufs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: lists %v merge to %v, want %v", trial, lists, got, want)
		}
	}
}
