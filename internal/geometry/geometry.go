// Package geometry provides the small computational-geometry substrate used
// by PBE-2's online piecewise-linear approximation.
//
// PBE-2 maintains, in the (slope, intercept) parameter plane, the convex
// feasible region of all lines that pass through every frequency constraint
// seen since the current segment began. Each constraint contributes two
// half-planes; the region is a convex polygon that is repeatedly clipped
// (Sutherland–Hodgman) until it becomes empty, at which point a segment is
// emitted. This package implements the vectors, half-planes, clipping,
// centroid and area primitives needed for that.
//
// Tolerances here are absolute (Eps), so callers keep their coordinates
// small: PBE-2 works in a frame local to the open window, where the region
// sits within a few γ of the origin. Two primitives exist for that caller's
// hot path and its safety: Inside tells which of a constraint's two
// half-planes cut the region at all (most do not, and their clips are
// skipped), and Centroid sums relative to the polygon's first vertex, so a
// far-away sliver still gets an interior point.
package geometry

import "math"

// Eps is the absolute tolerance used for half-plane membership tests. The
// coordinates PBE-2 works with are window-local time offsets and count
// differences, exact small-magnitude values, so a fixed absolute epsilon
// suffices.
const Eps = 1e-9

// Vec2 is a point (or vector) in the plane.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v − w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns k·v.
func (v Vec2) Scale(k float64) Vec2 { return Vec2{k * v.X, k * v.Y} }

// Cross returns the z-component of v × w.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// HalfPlane is the closed region A·x + B·y ≤ C.
type HalfPlane struct {
	A, B, C float64
}

// Contains reports whether p satisfies the half-plane within Eps.
func (h HalfPlane) Contains(p Vec2) bool {
	return h.A*p.X+h.B*p.Y <= h.C+Eps
}

// eval returns the signed slack C − (A·x + B·y); non-negative means inside.
func (h HalfPlane) eval(p Vec2) float64 {
	return h.C - (h.A*p.X + h.B*p.Y)
}

// LineIntersection returns the intersection point of the two boundary lines
// A·x + B·y = C. ok is false when the lines are (nearly) parallel.
func LineIntersection(h1, h2 HalfPlane) (Vec2, bool) {
	det := h1.A*h2.B - h2.A*h1.B
	if math.Abs(det) < Eps {
		return Vec2{}, false
	}
	return Vec2{
		X: (h1.C*h2.B - h2.C*h1.B) / det,
		Y: (h1.A*h2.C - h2.A*h1.C) / det,
	}, true
}

// Polygon is a convex polygon given by its vertices in counter-clockwise
// order. An empty vertex set denotes the empty region. The zero value is the
// empty polygon.
type Polygon struct {
	vs []Vec2
}

// NewPolygon builds a polygon from vertices assumed convex and CCW-ordered.
// The slice is copied.
func NewPolygon(vs []Vec2) Polygon {
	cp := make([]Vec2, len(vs))
	copy(cp, vs)
	return Polygon{vs: cp}
}

// Vertices returns a copy of the polygon's vertices.
func (p Polygon) Vertices() []Vec2 {
	cp := make([]Vec2, len(p.vs))
	copy(cp, p.vs)
	return cp
}

// Len returns the number of vertices.
func (p Polygon) Len() int { return len(p.vs) }

// Empty reports whether the polygon has (numerically) vanished: fewer than
// three vertices cannot bound a 2-D region. PBE-2 treats a degenerate
// (segment or point) region as empty and emits a segment, which is safe: any
// point of the previous non-empty region is a valid answer.
func (p Polygon) Empty() bool { return len(p.vs) < 3 }

// Clip intersects the polygon with the half-plane and returns the result.
// Standard Sutherland–Hodgman: walk edges, keep inside vertices, insert the
// boundary crossing when an edge straddles the line.
func (p Polygon) Clip(h HalfPlane) Polygon {
	if len(p.vs) == 0 {
		return Polygon{}
	}
	out := make([]Vec2, 0, len(p.vs)+1)
	for i := 0; i < len(p.vs); i++ {
		cur := p.vs[i]
		next := p.vs[(i+1)%len(p.vs)]
		curIn := h.eval(cur) >= -Eps
		nextIn := h.eval(next) >= -Eps
		if curIn {
			out = append(out, cur)
		}
		if curIn != nextIn {
			// Edge crosses the boundary; find the crossing by linear
			// interpolation on the slack, which is affine along the edge.
			d1 := h.eval(cur)
			d2 := h.eval(next)
			t := d1 / (d1 - d2)
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			out = append(out, cur.Add(next.Sub(cur).Scale(t)))
		}
	}
	return Polygon{vs: dedupe(out)}
}

// ClipInto is Clip writing its result into buf's storage instead of
// allocating. buf is truncated, grown as needed, and left holding the result
// so its capacity carries over to the next call; the returned polygon
// aliases *buf. The caller must ensure p does not alias *buf and must treat
// the previous contents of *buf as dead. Output is bit-identical to Clip.
//
//histburst:fastpath Clip
func (p Polygon) ClipInto(h HalfPlane, buf *[]Vec2) Polygon {
	n := len(p.vs)
	if n == 0 {
		return Polygon{}
	}
	out := (*buf)[:0]
	// Each vertex's slack is computed once and carried to the next edge
	// (Clip evaluates it twice, as edge head and as edge tail); the dedupe
	// pass is fused into the emit so the output is written exactly once.
	d0 := h.eval(p.vs[0])
	in0 := d0 >= -Eps
	d1, curIn := d0, in0
	for i := 0; i < n; i++ {
		j := i + 1
		var d2 float64
		var nextIn bool
		if j < n {
			d2 = h.eval(p.vs[j])
			nextIn = d2 >= -Eps
		} else {
			j = 0
			d2, nextIn = d0, in0
		}
		cur := p.vs[i]
		if curIn {
			// appendDeduped, inlined by hand: the compare + append is too
			// large for the inliner but far cheaper than a call per emit.
			if k := len(out); k == 0 ||
				!(math.Abs(cur.X-out[k-1].X) < Eps && math.Abs(cur.Y-out[k-1].Y) < Eps) {
				out = append(out, cur)
			}
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
			x := cur.Add(p.vs[j].Sub(cur).Scale(t))
			if k := len(out); k == 0 ||
				!(math.Abs(x.X-out[k-1].X) < Eps && math.Abs(x.Y-out[k-1].Y) < Eps) {
				out = append(out, x)
			}
		}
		d1, curIn = d2, nextIn
	}
	for len(out) > 1 {
		d := out[0].Sub(out[len(out)-1])
		if math.Abs(d.X) < Eps && math.Abs(d.Y) < Eps {
			out = out[:len(out)-1]
			continue
		}
		break
	}
	*buf = out
	return Polygon{vs: out}
}

// Inside reports, for each of two half-planes, whether it already contains
// every vertex of p under the membership test Clip applies. Clipping by such
// a half-plane removes nothing and re-emits p's (already deduplicated)
// vertex list unchanged, so a caller may skip it: PBE-2 asks before every
// double clip, and most constraints of a long window are redundant.
//
//histburst:noalloc
func (p Polygon) Inside(h1, h2 HalfPlane) (in1, in2 bool) {
	in1, in2 = true, true
	for _, v := range p.vs {
		in1 = in1 && h1.eval(v) >= -Eps
		in2 = in2 && h2.eval(v) >= -Eps
	}
	return in1, in2
}

// dedupe removes consecutive (and wrap-around) vertices closer than Eps,
// which clipping can produce when the boundary passes through a vertex.
func dedupe(vs []Vec2) []Vec2 {
	if len(vs) == 0 {
		return vs
	}
	out := vs[:0]
	for _, v := range vs {
		if len(out) > 0 {
			d := v.Sub(out[len(out)-1])
			if math.Abs(d.X) < Eps && math.Abs(d.Y) < Eps {
				continue
			}
		}
		out = append(out, v)
	}
	for len(out) > 1 {
		d := out[0].Sub(out[len(out)-1])
		if math.Abs(d.X) < Eps && math.Abs(d.Y) < Eps {
			out = out[:len(out)-1]
			continue
		}
		break
	}
	return out
}

// Area returns the polygon's (non-negative) area.
func (p Polygon) Area() float64 {
	if len(p.vs) < 3 {
		return 0
	}
	var a float64
	for i := range p.vs {
		a += p.vs[i].Cross(p.vs[(i+1)%len(p.vs)])
	}
	return math.Abs(a) / 2
}

// Centroid returns a representative interior point: the area centroid for a
// proper polygon, or the vertex average for a degenerate one. PBE-2 uses it
// as the "randomly chosen point from G" of Algorithm 2 — any feasible point
// is valid, and the centroid is deterministic and well-centred.
//
// The shoelace sums run over vertices taken relative to the first one, so
// the cross products are as small as the polygon rather than as large as its
// distance from the origin: a sliver far from the origin would otherwise
// lose every significant digit to cancellation and the "centroid" land
// outside the region.
//
//histburst:noalloc
func (p Polygon) Centroid() Vec2 {
	if len(p.vs) == 0 {
		return Vec2{}
	}
	if len(p.vs) < 3 {
		return vertexMean(p.vs)
	}
	o := p.vs[0]
	var cx, cy, a float64
	v1 := p.vs[1].Sub(o)
	for _, v := range p.vs[2:] {
		v2 := v.Sub(o)
		cross := v1.Cross(v2)
		a += cross
		cx += (v1.X + v2.X) * cross
		cy += (v1.Y + v2.Y) * cross
		v1 = v2
	}
	if math.Abs(a) < Eps {
		// Nearly zero area: fall back to the vertex mean.
		return vertexMean(p.vs)
	}
	return Vec2{X: o.X + cx/(3*a), Y: o.Y + cy/(3*a)}
}

func vertexMean(vs []Vec2) Vec2 {
	var m Vec2
	for _, v := range vs {
		m = m.Add(v)
	}
	return m.Scale(1 / float64(len(vs)))
}

// Contains reports whether q lies inside the polygon (within Eps), assuming
// CCW orientation.
func (p Polygon) Contains(q Vec2) bool {
	if len(p.vs) < 3 {
		return false
	}
	for i := range p.vs {
		a := p.vs[i]
		b := p.vs[(i+1)%len(p.vs)]
		if b.Sub(a).Cross(q.Sub(a)) < -Eps {
			return false
		}
	}
	return true
}

// InsideBy reports whether q lies inside every edge's line by more than
// margin, the distance measured along the Y axis: for each edge from u to v,
// (v − u) × (q − u) > margin·|v.X − u.X|, so an edge parallel to the Y axis
// asks only for strictness. Unlike Contains it grants no Eps: a point on the
// boundary, or just outside it, is not inside.
//
//histburst:noalloc
func (p Polygon) InsideBy(q Vec2, margin float64) bool {
	if len(p.vs) < 3 {
		return false
	}
	u := p.vs[len(p.vs)-1]
	for _, v := range p.vs {
		e := v.Sub(u)
		if e.Cross(q.Sub(u)) <= margin*math.Abs(e.X) {
			return false
		}
		u = v
	}
	return true
}

// ChordX returns the X interval [lo, hi] where the horizontal line at y
// meets the polygon, assuming CCW orientation; ok is false when it misses.
// Like InsideBy it grants no Eps.
//
//histburst:noalloc
func (p Polygon) ChordX(y float64) (lo, hi float64, ok bool) {
	if len(p.vs) < 3 {
		return 0, 0, false
	}
	lo, hi = math.Inf(-1), math.Inf(1)
	u := p.vs[len(p.vs)-1]
	for _, v := range p.vs {
		// q = (x, y) is inside this edge where e × (q − u) ≥ 0, that is
		// e.Y·x ≤ c.
		e := v.Sub(u)
		c := e.X*(y-u.Y) + e.Y*u.X
		switch {
		case e.Y > 0:
			hi = math.Min(hi, c/e.Y)
		case e.Y < 0:
			lo = math.Max(lo, c/e.Y)
		case c < 0:
			return 0, 0, false
		}
		u = v
	}
	return lo, hi, lo <= hi
}

// BoundedIntersection builds the polygon from exactly four half-planes whose
// pairwise boundary intersections bound a (possibly degenerate)
// parallelogram-like region. PBE-2 seeds each feasible region from the four
// constraints of its first two points; for distinct timestamps the two
// constraint pairs have different boundary slopes, so the region is bounded.
// ok is false if the region is empty or unbounded (parallel seed
// constraints).
func BoundedIntersection(hs [4]HalfPlane) (Polygon, bool) {
	// Gather all pairwise boundary intersections that satisfy every
	// half-plane; their convex hull is the region.
	var pts []Vec2
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			p, ok := LineIntersection(hs[i], hs[j])
			if !ok {
				continue
			}
			inside := true
			for k := 0; k < 4; k++ {
				if !hs[k].Contains(p) {
					inside = false
					break
				}
			}
			if inside {
				pts = append(pts, p)
			}
		}
	}
	hull := ConvexHull(pts)
	if len(hull) < 3 {
		return Polygon{vs: hull}, len(hull) > 0
	}
	return Polygon{vs: hull}, true
}

// BoundedIntersectionInto is BoundedIntersection writing the hull into buf's
// storage instead of allocating. The four seed half-planes yield at most six
// pairwise boundary intersections, so every intermediate of the monotone
// chain fits in fixed stack arrays; only the final vertex list touches *buf.
// Same aliasing contract as ClipInto; output is bit-identical to
// BoundedIntersection.
//
//histburst:fastpath BoundedIntersection
func BoundedIntersectionInto(hs [4]HalfPlane, buf *[]Vec2) (Polygon, bool) {
	var pts [6]Vec2
	n := 0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			p, ok := LineIntersection(hs[i], hs[j])
			if !ok {
				continue
			}
			inside := true
			for k := 0; k < 4; k++ {
				if !hs[k].Contains(p) {
					inside = false
					break
				}
			}
			if inside {
				pts[n] = p
				n++
			}
		}
	}
	hull := hullInto(pts[:n], (*buf)[:0])
	*buf = hull
	if len(hull) < 3 {
		return Polygon{vs: hull}, len(hull) > 0
	}
	return Polygon{vs: hull}, true
}

// hullInto runs the monotone chain of ConvexHull for at most six points,
// using stack scratch for the sort and the two chains, and appends the hull
// into out. Arithmetic and vertex order match ConvexHull exactly.
func hullInto(pts []Vec2, out []Vec2) []Vec2 {
	if len(pts) <= 2 {
		return dedupe(append(out, pts...))
	}
	var sortBuf [6]Vec2
	sorted := sortBuf[:0]
	sorted = append(sorted, pts...)
	// Sort by (X, Y).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && less(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var lowerBuf, upperBuf [7]Vec2
	lower, upper := lowerBuf[:0], upperBuf[:0]
	for _, p := range sorted {
		for len(lower) >= 2 && lower[len(lower)-1].Sub(lower[len(lower)-2]).Cross(p.Sub(lower[len(lower)-2])) <= Eps {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		for len(upper) >= 2 && upper[len(upper)-1].Sub(upper[len(upper)-2]).Cross(p.Sub(upper[len(upper)-2])) <= Eps {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	out = append(out, lower[:len(lower)-1]...)
	out = append(out, upper[:len(upper)-1]...)
	return dedupe(out)
}

// ConvexHull returns the convex hull of the points in CCW order (Andrew's
// monotone chain). Collinear interior points are dropped.
func ConvexHull(pts []Vec2) []Vec2 {
	if len(pts) <= 2 {
		return dedupe(append([]Vec2(nil), pts...))
	}
	sorted := append([]Vec2(nil), pts...)
	// Sort by (X, Y).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && less(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var lower, upper []Vec2
	for _, p := range sorted {
		for len(lower) >= 2 && lower[len(lower)-1].Sub(lower[len(lower)-2]).Cross(p.Sub(lower[len(lower)-2])) <= Eps {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		for len(upper) >= 2 && upper[len(upper)-1].Sub(upper[len(upper)-2]).Cross(p.Sub(upper[len(upper)-2])) <= Eps {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	return dedupe(hull)
}

func less(a, b Vec2) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}
