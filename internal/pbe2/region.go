package pbe2

import (
	"math"
	"sync"

	"histburst/internal/geometry"
)

// rpoint is one constrained instant: the curve must land in
// [hi − slack, hi] at t. Construction feeds (t, F(t), γ) at every doubled
// corner; downsampling feeds the summed source estimates with whatever of
// the new cap the sources' own caps leave over.
type rpoint struct {
	t         int64
	hi, slack float64
}

// region is the feasible-region engine of Algorithm 2, shared by online
// construction (Builder.Append) and re-summarization (DownsampleInto): it
// keeps the convex set of lines that satisfy every constraint of the open
// window, and hands back a finished Segment whenever the window closes.
//
// The region lives in window-local coordinates. A line is the pair (a, y)
// read as value(t) = a·(t − winStart) + y + v0, where winStart is the
// window's first constrained instant and v0 the top of its admissible range
// there; a constraint enters as (t − winStart, hi − v0), an exact integer
// and an exact (or, for float ranges, nearly exact) float subtraction. The
// polygon therefore sits within a few γ of the origin however large the
// timestamps and counts are, construction is exactly invariant under
// translation of time, and a closed segment keeps the window's frame: its
// value at winStart and its slope (Segment). In absolute coordinates the
// intercept is f − a·t ≈ 10⁵…10⁸ and the region a sliver ~10⁻⁹ wide at that
// offset: the centroid cancels catastrophically and the emitted line leaves
// its own window's constraints (by thousands of counts at Unix-epoch
// timestamps).
type region struct {
	// poly aliases scr.bufs[scr.cur] while a window is open. The engine is
	// pooled, arena and all, and recycled when its owner seals, so resting
	// summaries carry neither.
	scr  clipScratch
	poly geometry.Polygon
	open bool // poly is the region of the window [winStart, winEnd]

	// A window starts as a single constraint — two points seed a region — and
	// that first constraint is the frame: pending says it is all there is.
	pending  bool
	winStart int64   // first constrained instant of the window
	v0       float64 // value origin: the first constraint's hi
	slack0   float64 // the first constraint's slack
	winEnd   int64   // last constrained instant absorbed into poly
}

// clipScratch is the per-region vertex arena for allocation-free region
// maintenance: two ping-pong polygon buffers plus the intermediate of the
// double clip. Holding the region in bufs[cur] while clipping into
// bufs[1−cur] keeps the pre-clip region intact, because an empty result
// must fall back to it (close emits from the last feasible region).
type clipScratch struct {
	bufs [2][]geometry.Vec2
	tmp  []geometry.Vec2
	cur  int
}

// regionPool recycles engines across builders: segment builds and compaction
// runs churn through many short-lived builders, and the arena's buffers reach
// steady-state capacity after a handful of clips.
var regionPool = sync.Pool{New: func() any { return new(region) }}

// recycle hands the engine back once its owner rests: no window, the arena's
// capacity kept. The owner takes a fresh one if constraints resume.
func (r *region) recycle() {
	*r = region{scr: r.scr}
	regionPool.Put(r)
}

// roll closes the open window, if any, and opens a fresh one holding only p.
//
//histburst:noalloc
func (r *region) roll(p rpoint) (seg Segment, emitted bool) {
	seg, emitted = r.close()
	r.pending = true
	r.winStart, r.v0, r.slack0 = p.t, p.hi, p.slack
	return seg, emitted
}

// constraints returns p's two half-planes (equation 5) in the window's
// local (a, y) plane: hi − slack ≤ a·(t − winStart) + y + v0 ≤ hi. Fed
// instants never precede winStart, so the unsigned conversion is the exact
// distance even when the signed difference would wrap.
//
//histburst:noalloc
func (r *region) constraints(p rpoint) (upper, lower geometry.HalfPlane) {
	x := float64(uint64(p.t - r.winStart))
	y := p.hi - r.v0
	upper = geometry.HalfPlane{A: x, B: 1, C: y}             // a·x + y ≤ hi
	lower = geometry.HalfPlane{A: -x, B: -1, C: p.slack - y} // a·x + y ≥ hi − slack
	return upper, lower
}

// feed adds one constraint to the open window. When the window cannot take
// it — the region would become empty — the window's segment is returned and
// a new window starts at p.
//
// Most constraints of a long window are redundant: the region already lies
// inside one or both of their half-planes. One pass over the vertices finds
// out, and only a half-plane that actually cuts is clipped — a clip that
// removes nothing would re-emit the same vertex list, so the polygon
// sequence is bit-identical to feedNaive's unconditional double clip.
//
//histburst:noalloc
//histburst:fastpath feedNaive
func (r *region) feed(p rpoint) (seg Segment, emitted bool) {
	if !r.open {
		if !r.pending {
			return r.roll(p)
		}
		if p.t == r.winStart {
			// Same-instant refeed (can happen after clamping): keep the
			// later constraint.
			r.v0, r.slack0 = p.hi, p.slack
			return seg, false
		}
		// Two points seed a bounded region (their boundary slopes differ
		// because timestamps differ).
		u0, l0 := r.constraints(rpoint{t: r.winStart, hi: r.v0, slack: r.slack0})
		u1, l1 := r.constraints(p)
		poly, ok := geometry.BoundedIntersectionInto([4]geometry.HalfPlane{u0, l0, u1, l1}, &r.scr.bufs[r.scr.cur])
		if !ok || poly.Empty() {
			// The two points alone are infeasible for one line — possible
			// only when the rise between them exceeds any line's reach; emit
			// a zero-length segment for the first and retry with the second.
			return r.roll(p)
		}
		r.poly = poly
		r.open = true
		r.pending = false
		r.winEnd = p.t
		return seg, false
	}
	upper, lower := r.constraints(p)
	if upIn, loIn := r.poly.Inside(upper, lower); !upIn || !loIn {
		scr := &r.scr
		dst := &scr.bufs[1-scr.cur]
		var next geometry.Polygon
		switch {
		case upIn:
			next = r.poly.ClipInto(lower, dst)
		case loIn:
			next = r.poly.ClipInto(upper, dst)
		default:
			next = r.poly.ClipInto(upper, &scr.tmp).ClipInto(lower, dst)
		}
		if next.Empty() {
			// Close the segment over the window that was still feasible (it
			// is untouched in bufs[cur]), then start a new window at p.
			return r.roll(p)
		}
		scr.cur = 1 - scr.cur
		r.poly = next
	}
	r.winEnd = p.t
	return seg, false
}

// close ends the open window and returns its segment, if there is one: a
// line of the narrow grid strictly inside the region (gridLine), else the
// region's centroid line with its slope rounded to float32 when that stays
// as far inside, else the centroid line itself; or a single-instant segment
// at the middle of a lone constraint's range, on the grid when that stays in
// the range.
//
//histburst:noalloc
func (r *region) close() (seg Segment, emitted bool) {
	switch {
	case r.open:
		a, y := r.line()
		if ga, gy, ok := r.gridLine(a, y); ok {
			a, y = ga, gy
		} else if fa := float64(float32(a)); r.poly.InsideBy(geometry.Vec2{X: fa, Y: y - r.v0}, gridMargin) {
			a = fa
		}
		seg = Segment{A: a, Y: y, Start: r.winStart, End: r.winEnd}
	case r.pending:
		lo, y := r.v0-r.slack0, r.v0-r.slack0/2
		if gy := math.Round(y*yUnit) / yUnit; gy >= lo && gy <= r.v0 {
			y = gy
		}
		seg = Segment{Y: y, Start: r.winStart, End: r.winStart}
	default:
		return seg, false
	}
	r.open = false
	r.pending = false
	r.poly = geometry.Polygon{}
	return seg, true
}

// gridMargin is how far inside every constraint of its window, in counts, a
// line rounded to the stored grid must stay: far more than the clip's
// tolerance lets the polygon stray outside its constraints (geometry.Eps)
// and than a float64 evaluation rounds, far less than the grid's spacing.
const gridMargin = 1.0 / (1 << 20)

// gridLine returns a line of the narrow grid — a float32 slope, a value at
// winStart in multiples of 2⁻⁸ — strictly inside the open region: the line
// (a, y) rounded to the grid, or one of its eight neighbours there; failing
// those, at the grid value nearest y or either neighbour, the float32 slope
// nearest the middle of the region's chord there, or the one to either side
// of it. ok is false when none of them is inside.
//
//histburst:noalloc
func (r *region) gridLine(a, y float64) (ga, gy float64, ok bool) {
	k0 := math.Round(y * yUnit)
	for _, sa := range around(float32(a)) {
		for _, dk := range [3]float64{0, -1, 1} {
			if ga, gy = float64(sa), (k0+dk)/yUnit; r.poly.InsideBy(geometry.Vec2{X: ga, Y: gy - r.v0}, gridMargin) {
				return ga, gy, true
			}
		}
	}
	for _, dk := range [3]float64{0, -1, 1} {
		gy = (k0 + dk) / yUnit
		lo, hi, ok := r.poly.ChordX(gy - r.v0)
		if !ok {
			continue
		}
		for _, sa := range around(float32(lo + (hi-lo)/2)) {
			if ga = float64(sa); r.poly.InsideBy(geometry.Vec2{X: ga, Y: gy - r.v0}, gridMargin) {
				return ga, gy, true
			}
		}
	}
	return 0, 0, false
}

// around returns a and the float32 values on either side of it.
//
//histburst:noalloc
func around(a float32) [3]float32 {
	return [3]float32{a, math.Nextafter32(a, float32(math.Inf(-1))), math.Nextafter32(a, float32(math.Inf(1)))}
}

// line returns the open region's representative line as slope and value at
// winStart: value(t) = a·(t − winStart) + y.
//
//histburst:noalloc
func (r *region) line() (a, y float64) {
	c := r.poly.Centroid()
	return c.X, c.Y + r.v0
}
