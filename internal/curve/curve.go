// Package curve implements exact cumulative-frequency curves.
//
// For a single-event stream S_e the cumulative frequency F(t) is a monotone
// staircase: it is constant between arrivals and jumps at each distinct
// arrival timestamp. The staircase is represented by its left-upper corner
// points p_i = (t_i, F(t_i)) exactly as in Section III of the paper; this
// representation is the input to both PBE approximations and supports exact
// evaluation, area computation and the burstiness identity
// b(t) = F(t) − 2F(t−τ) + F(t−2τ).
package curve

import (
	"errors"
	"fmt"
	"sort"

	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// Point is a staircase corner: at time T the cumulative frequency becomes F
// (and stays F until the next corner).
type Point struct {
	T int64
	F int64
}

// Staircase is a monotone staircase curve defined by its corner points,
// strictly increasing in both T and F. The value before the first corner
// is 0 by convention (F starts at zero), and the value at or after the last
// corner's time is that corner's F.
type Staircase struct {
	pts []Point
}

// ErrNotMonotone reports corner points that are not strictly increasing in
// both coordinates.
var ErrNotMonotone = errors.New("curve: corner points not strictly increasing")

// FromTimestamps builds the exact staircase for a sorted single-event
// timestamp sequence. Duplicate timestamps collapse into a single corner
// whose F counts all of them.
func FromTimestamps(ts stream.TimestampSeq) (Staircase, error) {
	if err := ts.Validate(); err != nil {
		return Staircase{}, err
	}
	pts := make([]Point, 0, len(ts))
	for i, t := range ts {
		if len(pts) > 0 && pts[len(pts)-1].T == t {
			pts[len(pts)-1].F = int64(i + 1)
			continue
		}
		pts = append(pts, Point{T: t, F: int64(i + 1)})
	}
	return Staircase{pts: pts}, nil
}

// FromPoints builds a staircase directly from corner points, validating
// strict monotonicity. The slice is not copied; callers must not mutate it
// afterwards.
func FromPoints(pts []Point) (Staircase, error) {
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T || pts[i].F <= pts[i-1].F {
			return Staircase{}, fmt.Errorf("%w: points %d and %d", ErrNotMonotone, i-1, i)
		}
	}
	return Staircase{pts: pts}, nil
}

// Len returns the number of corner points n = |F(t)|.
func (c Staircase) Len() int { return len(c.pts) }

// Points returns the corner points. The result must not be mutated.
func (c Staircase) Points() []Point { return c.pts }

// Value returns F(t): the F of the last corner at or before t, or 0 if t
// precedes the first corner.
func (c Staircase) Value(t int64) int64 {
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].T > t })
	if i == 0 {
		return 0
	}
	return c.pts[i-1].F
}

// Total returns the final cumulative frequency, i.e. the stream size N
// (for an exact curve).
func (c Staircase) Total() int64 {
	if len(c.pts) == 0 {
		return 0
	}
	return c.pts[len(c.pts)-1].F
}

// Burstiness returns the exact burstiness b(t) = F(t) − 2F(t−τ) + F(t−2τ)
// for burst span τ > 0; it panics on any other τ.
func (c Staircase) Burstiness(t, tau int64) int64 {
	t0, t1, _ := pbe.MustSpan(tau).Instants(t)
	return c.Value(t) - 2*c.Value(t1) + c.Value(t0)
}

// BurstFrequency returns bf(t) = f(t−τ, t) = F(t) − F(t−τ): the incoming
// rate of the event over the span ending at t, for τ > 0.
func (c Staircase) BurstFrequency(t, tau int64) int64 {
	_, t1, _ := pbe.MustSpan(tau).Instants(t)
	return c.Value(t) - c.Value(t1)
}

// AreaBetween returns ∫_{t1}^{t2} F(t) dt over the discrete time domain,
// i.e. the sum of F(t) for integer t in [t1, t2). It is used to measure the
// approximation error Δ of a compressed curve.
func (c Staircase) AreaBetween(t1, t2 int64) int64 {
	if t1 >= t2 {
		return 0
	}
	var area int64
	// Walk the corners covering [t1, t2).
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].T > t1 })
	// Value on [t1, next corner) is pts[i-1].F (or 0 if i==0).
	cur := t1
	for cur < t2 {
		var v int64
		if i > 0 {
			v = c.pts[i-1].F
		}
		next := t2
		if i < len(c.pts) && c.pts[i].T < t2 {
			next = c.pts[i].T
		}
		area += v * (next - cur)
		cur = next
		i++
	}
	return area
}

// PrefixAreas returns A where A[i] = ∫_{t_0}^{t_i} F(t) dt for each corner
// i, with A[0] = 0. These prefix sums let the PBE-1 dynamic program compute
// any inter-corner area in O(1):
//
//	∫_{t_a}^{t_b} F = A[b] − A[a].
func (c Staircase) PrefixAreas() []int64 {
	if len(c.pts) == 0 {
		return nil
	}
	a := make([]int64, len(c.pts))
	for i := 1; i < len(c.pts); i++ {
		a[i] = a[i-1] + c.pts[i-1].F*(c.pts[i].T-c.pts[i-1].T)
	}
	return a
}

// Doubled returns the corner set augmented as in Section III-B of the paper:
// for every corner p_i (i ≥ 1) the point (t_i − 1, F(t_{i−1})) is inserted
// before p_i, unless it would coincide with p_{i−1} (adjacent timestamps).
// The result describes the same staircase but pins the flat run leading into
// every rise, which bounds the error of a piecewise-linear approximation
// across wide gaps. The first corner additionally gets (t_0 − 1, 0) so the
// initial rise from zero is pinned too.
func (c Staircase) Doubled() []Point {
	if len(c.pts) == 0 {
		return nil
	}
	out := make([]Point, 0, 2*len(c.pts))
	out = append(out, Point{T: c.pts[0].T - 1, F: 0})
	out = append(out, c.pts[0])
	for i := 1; i < len(c.pts); i++ {
		prev := c.pts[i-1]
		cur := c.pts[i]
		if cur.T-1 > prev.T {
			out = append(out, Point{T: cur.T - 1, F: prev.F})
		}
		out = append(out, cur)
	}
	return out
}

// MaxGap returns the maximum pointwise gap max_t (F(t) − G(t)) between this
// curve and an approximation G evaluated via the supplied function. Only
// corner times and the instants just before them need checking for a
// staircase. Used by tests to verify approximation guarantees.
func (c Staircase) MaxGap(g func(int64) float64) float64 {
	var worst float64
	check := func(t int64) {
		d := float64(c.Value(t)) - g(t)
		if d > worst {
			worst = d
		}
	}
	for i, p := range c.pts {
		check(p.T)
		if i > 0 {
			check(p.T - 1)
		}
	}
	return worst
}
