package pbe2

import (
	"math"
	"sync"
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
//
// Every constraint bounds one functional of the line, its value x·a + y at
// x = t − winStart, from both sides (local), so the engine scores a vertex
// once per constraint and reads both of its slacks from that one score.
type region struct {
	// vs is the open window's region, its vertices counter-clockwise; it
	// aliases scr.bufs[scr.cur] while a window is open. The engine is
	// pooled, arena and all, and recycled when its owner seals, so resting
	// summaries carry neither.
	vs   []vertex
	scr  clipScratch
	open bool // vs is the region of the window [winStart, winEnd]

	// A window starts as a single constraint — two points seed a region — and
	// that first constraint is the frame: pending says it is all there is.
	pending  bool
	winStart int64   // first constrained instant of the window
	v0       float64 // value origin: the first constraint's hi
	slack0   float64 // the first constraint's slack
	winEnd   int64   // last constrained instant absorbed into vs
}

// vertex is a corner of the region: the line of slope a and value y at
// winStart, y measured from v0.
type vertex struct{ slope, value float64 }

func (v vertex) sub(w vertex) vertex { return vertex{v.slope - w.slope, v.value - w.value} }

// cross returns the z-component of v × w.
func (v vertex) cross(w vertex) float64 { return v.slope*w.value - v.value*w.slope }

// near reports whether v and w are within eps of each other on both axes;
// a clip keeps one vertex of such a pair.
func near(v, w vertex) bool {
	return math.Abs(v.slope-w.slope) < eps && math.Abs(v.value-w.value) < eps
}

// eps is the absolute tolerance of the region's membership tests. The
// coordinates are window-local time offsets and count differences, exact
// small-magnitude values, so a fixed absolute tolerance suffices.
const eps = 1e-9

// clipScratch is the per-region vertex arena for allocation-free region
// maintenance: two ping-pong vertex buffers plus the intermediate of the
// double clip. Holding the region in bufs[cur] while clipping into
// bufs[1−cur] keeps the pre-clip region intact, because an empty result
// must fall back to it (close emits from the last feasible region).
type clipScratch struct {
	bufs [2][]vertex
	tmp  []vertex
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

// local returns p (equation 5) in the window's local (a, y) plane: the
// line's value there, x·a + y, must lie in [−dn, up], that is
// hi − slack ≤ a·(t − winStart) + y + v0 ≤ hi. A vertex scored s = x·a + y
// is inside the upper bound by up − s and inside the lower by dn + s. Fed
// instants never precede winStart, so the unsigned conversion is the exact
// distance even when the signed difference would wrap.
//
//histburst:noalloc
func (r *region) local(p rpoint) (x, up, dn float64) {
	x = float64(uint64(p.t - r.winStart))
	up = p.hi - r.v0
	return x, up, p.slack - up
}

// feed adds one constraint to the open window. When the window cannot take
// it — the region would become empty — the window's segment is returned and
// a new window starts at p.
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
		if !r.seed(r.local(p)) {
			// The two points alone are infeasible for one line — possible
			// only when the rise between them exceeds any line's reach; emit
			// a zero-length segment for the first and retry with the second.
			return r.roll(p)
		}
		r.open = true
		r.pending = false
		r.winEnd = p.t
		return seg, false
	}
	if !r.cut(r.local(p)) {
		// Close the segment over the window that was still feasible (it
		// is untouched in bufs[cur]), then start a new window at p.
		return r.roll(p)
	}
	r.winEnd = p.t
	return seg, false
}

// seed makes the region of the window's first constraint, −slack0 ≤ y ≤ 0
// at x = 0, and a second one at x > 0: the hull of the four corners where a
// bound of one meets a bound of the other, those that satisfy all four
// bounds (within eps). It reports whether the region has an interior.
//
//histburst:fastpath boundedIntersection
func (r *region) seed(x, up, dn float64) bool {
	first, second := [2]bound{{1, 0}, {-1, r.slack0}}, [2]bound{{1, up}, {-1, dn}}
	var pts [4]vertex
	n := 0
	for _, b0 := range first {
		for _, b1 := range second {
			v := b0.meet(b1, x)
			s := x*v.slope + v.value
			if first[0].holds(v.value) && first[1].holds(v.value) && second[0].holds(s) && second[1].holds(s) {
				pts[n] = v
				n++
			}
		}
	}
	buf := &r.scr.bufs[r.scr.cur]
	*buf = hull(pts[:n], (*buf)[:0])
	r.vs = *buf
	return len(r.vs) >= 3
}

// bound is one side of a constraint, sgn·(x·a + y) ≤ c: sgn = 1 caps the
// line's value at c, sgn = −1 floors it at −c.
type bound struct{ sgn, c float64 }

// holds reports whether a vertex of score s satisfies b within eps, as the
// seed tests its corners: sgn·s ≤ c + eps. A clip measures the slack
// c − sgn·s ≥ −eps instead; each keeps the rounding its general form had.
func (b bound) holds(s float64) bool { return b.sgn*s <= b.c+eps }

// meet returns where b0's line, at x = 0, crosses b1's, at x > 0, rounded
// as the two-line solve rounds it: the value is (0·c₁ − x·c₀)/det, not c₀.
func (b0 bound) meet(b1 bound, x float64) vertex {
	det := -b0.sgn * b1.sgn * x
	return vertex{
		slope: (b0.c*b1.sgn - b1.c*b0.sgn) / det,
		value: ((b0.sgn*0)*b1.c - (b1.sgn*x)*b0.c) / det,
	}
}

// hull appends to out the convex hull of at most four points, CCW from the
// least (a, y) (Andrew's monotone chain, collinear points dropped).
func hull(pts []vertex, out []vertex) []vertex {
	if len(pts) <= 2 {
		return dedupe(append(out, pts...))
	}
	var sortBuf [4]vertex
	sorted := append(sortBuf[:0], pts...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && (sorted[j].slope < sorted[j-1].slope || sorted[j].slope == sorted[j-1].slope && sorted[j].value < sorted[j-1].value); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var lowerBuf, upperBuf [4]vertex
	lower, upper := lowerBuf[:0], upperBuf[:0]
	for _, p := range sorted {
		for len(lower) >= 2 && lower[len(lower)-1].sub(lower[len(lower)-2]).cross(p.sub(lower[len(lower)-2])) <= eps {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		for len(upper) >= 2 && upper[len(upper)-1].sub(upper[len(upper)-2]).cross(p.sub(upper[len(upper)-2])) <= eps {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	out = append(out, lower[:len(lower)-1]...)
	return dedupe(append(out, upper[:len(upper)-1]...))
}

// dedupe removes consecutive (and wrap-around) vertices that are near.
func dedupe(vs []vertex) []vertex {
	out := vs[:0]
	for _, v := range vs {
		if len(out) == 0 || !near(v, out[len(out)-1]) {
			out = append(out, v)
		}
	}
	for len(out) > 1 && near(out[0], out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

// cut narrows the open region to the lines that keep x·a + y in [−dn, up],
// and reports whether that leaves an interior; when it does not, the
// region stays as it was.
//
// Most constraints of a long window are redundant: the region already lies
// inside one or both of their bounds. One pass over the vertices finds out,
// and only a bound that actually cuts is clipped — a clip that removes
// nothing would re-emit the same vertex list, so the region is
// bit-identical to feedNaive's unconditional double clip.
func (r *region) cut(x, up, dn float64) bool {
	upIn, dnIn := true, true
	for _, v := range r.vs {
		s := x*v.slope + v.value
		upIn = upIn && up-s >= -eps
		dnIn = dnIn && dn+s >= -eps
	}
	if upIn && dnIn {
		return true
	}
	scr := &r.scr
	dst := &scr.bufs[1-scr.cur]
	var next []vertex
	switch {
	case upIn:
		next = clip(r.vs, x, bound{-1, dn}, dst)
	case dnIn:
		next = clip(r.vs, x, bound{1, up}, dst)
	default:
		next = clip(clip(r.vs, x, bound{1, up}, &scr.tmp), x, bound{-1, dn}, dst)
	}
	if len(next) < 3 {
		return false
	}
	scr.cur = 1 - scr.cur
	r.vs = next
	return true
}

// clip writes into *buf the part of vs inside b at x — the vertices whose
// slack c − sgn·(x·a + y) is at least −eps — and returns it (Sutherland–
// Hodgman). buf is truncated, grown as needed, and left holding the result,
// so its capacity carries over to the next call; vs must not alias *buf.
//
//histburst:fastpath clipNaive
func clip(vs []vertex, x float64, b bound, buf *[]vertex) []vertex {
	n := len(vs)
	if n == 0 {
		return nil
	}
	out := (*buf)[:0]
	// Each vertex's slack is computed once and carried to the next edge,
	// and near neighbours are dropped as they are emitted.
	d0 := b.c - b.sgn*(x*vs[0].slope+vs[0].value)
	in0 := d0 >= -eps
	d1, curIn := d0, in0
	for i := 0; i < n; i++ {
		j := i + 1
		var d2 float64
		var nextIn bool
		if j < n {
			d2 = b.c - b.sgn*(x*vs[j].slope+vs[j].value)
			nextIn = d2 >= -eps
		} else {
			j = 0
			d2, nextIn = d0, in0
		}
		cur := vs[i]
		if curIn && (len(out) == 0 || !near(cur, out[len(out)-1])) {
			out = append(out, cur)
		}
		if curIn != nextIn {
			// Edge crosses the boundary; find the crossing by linear
			// interpolation on the slack, which is affine along the edge.
			t := d1 / (d1 - d2)
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			c := vertex{cur.slope + (vs[j].slope-cur.slope)*t, cur.value + (vs[j].value-cur.value)*t}
			if len(out) == 0 || !near(c, out[len(out)-1]) {
				out = append(out, c)
			}
		}
		d1, curIn = d2, nextIn
	}
	for len(out) > 1 && near(out[0], out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	*buf = out
	return out
}

// close ends the open window and returns its segment, if there is one: a
// line of the narrow grid strictly inside the region (gridLine), else the
// region's centroid line with its slope rounded to float32 when that stays
// as far inside, else the centroid line itself — in each case with the
// shortest slope that keeps it inside at its value (shortSlope); or a
// single-instant segment at the middle of a lone constraint's range, on the
// grid when that stays in the range.
//
//histburst:noalloc
func (r *region) close() (seg Segment, emitted bool) {
	switch {
	case r.open:
		a, y := r.line()
		if ga, gy, ok := r.gridLine(a, y); ok {
			a, y = ga, gy
		} else if fa := float64(float32(a)); r.insideBy(fa, y-r.v0, gridMargin) {
			a = fa
		}
		seg = Segment{A: r.shortSlope(a, y), Y: y, Start: r.winStart, End: r.winEnd}
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
	r.vs = nil
	return seg, true
}

// gridMargin is how far inside every constraint of its window, in counts, a
// line rounded to the stored grid must stay: far more than the clip's
// tolerance lets the polygon stray outside its constraints (eps)
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
			if ga, gy = float64(sa), (k0+dk)/yUnit; r.insideBy(ga, gy-r.v0, gridMargin) {
				return ga, gy, true
			}
		}
	}
	for _, dk := range [3]float64{0, -1, 1} {
		gy = (k0 + dk) / yUnit
		lo, hi, ok := r.chordX(gy - r.v0)
		if !ok {
			continue
		}
		for _, sa := range around(float32(lo + (hi-lo)/2)) {
			if ga = float64(sa); r.insideBy(ga, gy-r.v0, gridMargin) {
				return ga, gy, true
			}
		}
	}
	return 0, 0, false
}

// shortSlope returns, for the line of value y at winStart and slope a
// strictly inside the open region, a slope that keeps it so and whose
// float32 its cell can store in fewer bytes (slopeWidth): of a rounded to
// the top two bytes of a float32, then the middle of the region's chord at
// y rounded so, and the same two at the top three bytes, the first that
// stays gridMargin inside and moves the line by at most a grid unit, 2⁻⁸
// count, anywhere on the window; failing those, a. The bound keeps the
// window's answers where a's line puts them: a slope the region holds but
// further off moves borderline BURSTY-EVENT answers.
//
//histburst:noalloc
func (r *region) shortSlope(a, y float64) float64 {
	y -= r.v0
	lo, hi, _ := r.chordX(y)
	span := float64(uint64(r.winEnd - r.winStart))
	for _, w := range [2]uint8{2, 3} {
		for _, c := range [2]float64{a, lo + (hi-lo)/2} {
			if sa, ok := topBytes(c, w); ok && math.Abs(sa-a)*span <= 1.0/yUnit && r.insideBy(sa, y, gridMargin) {
				return sa
			}
		}
	}
	return a
}

// topBytes returns a as a float32 rounded to the nearest whose bits past
// the top w bytes are zero; ok is false when that is not a finite number.
//
//histburst:noalloc
func topBytes(a float64, w uint8) (float64, bool) {
	drop := 32 - 8*uint(w)
	b := math.Float32bits(float32(a))
	b = (b + 1<<(drop-1)) &^ (1<<drop - 1)
	if b&0x7f800000 == 0x7f800000 {
		return 0, false
	}
	return float64(math.Float32frombits(b)), true
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
	c := r.centroid()
	return c.slope, c.value + r.v0
}

// centroid returns a representative interior point of the open region:
// the area centroid, or the vertex mean of a region of (nearly) no area.
// Algorithm 2 asks for any point of the region — "randomly chosen" — and
// the centroid is deterministic and well centred.
//
// The shoelace sums run over vertices taken relative to the first one, so
// the cross products are as small as the region rather than as large as
// its distance from the origin: a sliver far from the origin would
// otherwise lose every significant digit to cancellation and the
// "centroid" land outside the region.
//
//histburst:noalloc
func (r *region) centroid() vertex {
	vs := r.vs
	if len(vs) == 0 {
		return vertex{}
	}
	if len(vs) >= 3 {
		o := vs[0]
		var ca, cy, area float64
		v1 := vs[1].sub(o)
		for _, v := range vs[2:] {
			v2 := v.sub(o)
			cross := v1.cross(v2)
			area += cross
			ca += (v1.slope + v2.slope) * cross
			cy += (v1.value + v2.value) * cross
			v1 = v2
		}
		if math.Abs(area) >= eps {
			return vertex{o.slope + ca/(3*area), o.value + cy/(3*area)}
		}
	}
	var m vertex
	for _, v := range vs {
		m = vertex{m.slope + v.slope, m.value + v.value}
	}
	k := 1 / float64(len(vs))
	return vertex{k * m.slope, k * m.value}
}

// insideBy reports whether the line (a, y) lies inside every edge of the
// open region by more than margin, the distance measured along the y
// axis: for each edge from u to v, (v − u) × (q − u) > margin·|v.slope − u.slope|
// at q = (a, y), so an edge parallel to the y axis asks only for
// strictness. It grants no eps: a line on the boundary, or just outside
// it, is not inside.
//
//histburst:noalloc
func (r *region) insideBy(a, y, margin float64) bool {
	if len(r.vs) < 3 {
		return false
	}
	q := vertex{a, y}
	u := r.vs[len(r.vs)-1]
	for _, v := range r.vs {
		e := v.sub(u)
		if e.cross(q.sub(u)) <= margin*math.Abs(e.slope) {
			return false
		}
		u = v
	}
	return true
}

// chordX returns the slopes [lo, hi] of the open region's lines of value
// y at winStart; ok is false when there are none. Like insideBy it grants
// no eps.
//
//histburst:noalloc
func (r *region) chordX(y float64) (lo, hi float64, ok bool) {
	if len(r.vs) < 3 {
		return 0, 0, false
	}
	lo, hi = math.Inf(-1), math.Inf(1)
	u := r.vs[len(r.vs)-1]
	for _, v := range r.vs {
		// q = (a, y) is inside this edge where e × (q − u) ≥ 0, that is
		// e.value·a ≤ c.
		e := v.sub(u)
		c := e.slope*(y-u.value) + e.value*u.slope
		switch {
		case e.value > 0:
			hi = math.Min(hi, c/e.value)
		case e.value < 0:
			lo = math.Max(lo, c/e.value)
		case c < 0:
			return 0, 0, false
		}
		u = v
	}
	return lo, hi, lo <= hi
}
