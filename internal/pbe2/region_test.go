package pbe2

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"histburst/internal/stream"
	"histburst/internal/workload"
)

// feedNaive is the retained naive twin of region.feed: the same window
// machinery in the same window-local coordinates, but the region is seeded
// by the general four-half-plane intersection and every constraint is
// clipped unconditionally through the allocating general clip, as
// Algorithm 2 is written. TestFeedMatchesNaive pins the two bit-identical.
func (r *region) feedNaive(p rpoint) (seg Segment, emitted bool) {
	if !r.open {
		if !r.pending {
			return r.roll(p)
		}
		if p.t == r.winStart {
			r.v0, r.slack0 = p.hi, p.slack
			return seg, false
		}
		u0, l0 := r.halfPlanes(rpoint{t: r.winStart, hi: r.v0, slack: r.slack0})
		u1, l1 := r.halfPlanes(p)
		vs, ok := boundedIntersection([4]halfPlane{u0, l0, u1, l1})
		if !ok || len(vs) < 3 {
			return r.roll(p)
		}
		r.vs, r.open, r.pending, r.winEnd = vs, true, false, p.t
		return seg, false
	}
	upper, lower := r.halfPlanes(p)
	next := clipNaive(clipNaive(r.vs, upper), lower)
	if len(next) < 3 {
		return r.roll(p)
	}
	r.vs, r.winEnd = next, p.t
	return seg, false
}

// halfPlane is the closed region A·a + B·y ≤ C of the (a, y) plane, the
// general form the naive twins work in.
type halfPlane struct{ A, B, C float64 }

// eval returns the signed slack C − (A·a + B·y); non-negative means inside.
func (h halfPlane) eval(v vertex) float64 { return h.C - (h.A*v.slope + h.B*v.value) }

// halfPlanes returns p's two half-planes (equation 5) in the window's local
// plane: hi − slack ≤ a·(t − winStart) + y + v0 ≤ hi.
func (r *region) halfPlanes(p rpoint) (upper, lower halfPlane) {
	x, up, dn := r.local(p)
	return halfPlane{x, 1, up}, halfPlane{-x, -1, dn}
}

// clipNaive is clip's naive twin, for any half-plane: Sutherland–
// Hodgman over the whole vertex list into a fresh slice, evaluating each
// vertex as edge head and again as edge tail, then a separate dedupe pass.
func clipNaive(vs []vertex, h halfPlane) []vertex {
	if len(vs) == 0 {
		return nil
	}
	out := make([]vertex, 0, len(vs)+1)
	for i := range vs {
		cur, next := vs[i], vs[(i+1)%len(vs)]
		curIn, nextIn := h.eval(cur) >= -eps, h.eval(next) >= -eps
		if curIn {
			out = append(out, cur)
		}
		if curIn != nextIn {
			d1, d2 := h.eval(cur), h.eval(next)
			t := d1 / (d1 - d2)
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			out = append(out, vertex{cur.slope + (next.slope-cur.slope)*t, cur.value + (next.value-cur.value)*t})
		}
	}
	return dedupe(out)
}

// boundedIntersection is region.seed's naive twin: the hull of every
// pairwise crossing of the four half-planes' boundary lines that satisfies
// all four, through the general two-line solve. ok is false when no
// crossing does.
func boundedIntersection(hs [4]halfPlane) (vs []vertex, ok bool) {
	var pts []vertex
	for i := range hs {
		for j := i + 1; j < len(hs); j++ {
			h1, h2 := hs[i], hs[j]
			det := h1.A*h2.B - h2.A*h1.B
			if math.Abs(det) < eps {
				continue // parallel
			}
			p := vertex{(h1.C*h2.B - h2.C*h1.B) / det, (h1.A*h2.C - h2.A*h1.C) / det}
			inside := true
			for _, h := range hs {
				inside = inside && h.A*p.slope+h.B*p.value <= h.C+eps
			}
			if inside {
				pts = append(pts, p)
			}
		}
	}
	vs = convexHull(pts)
	return vs, len(vs) > 0
}

// convexHull returns the convex hull of the points in CCW order (Andrew's
// monotone chain), collinear points dropped: region.seed's hull for any
// number of points.
func convexHull(pts []vertex) []vertex {
	if len(pts) <= 2 {
		return dedupe(append([]vertex(nil), pts...))
	}
	sorted := slices.Clone(pts)
	slices.SortStableFunc(sorted, func(p, q vertex) int {
		if c := cmp.Compare(p.slope, q.slope); c != 0 {
			return c
		}
		return cmp.Compare(p.value, q.value)
	})
	chain := func(pts []vertex) []vertex {
		var c []vertex
		for _, p := range pts {
			for len(c) >= 2 && c[len(c)-1].sub(c[len(c)-2]).cross(p.sub(c[len(c)-2])) <= eps {
				c = c[:len(c)-1]
			}
			c = append(c, p)
		}
		return c[:len(c)-1]
	}
	lower := chain(sorted)
	slices.Reverse(sorted)
	return dedupe(append(lower, chain(sorted)...))
}

// gapStream draws n arrivals with exponential gaps of the given mean,
// floored to ticks, starting at origin+1: a mean below 1 yields same-instant
// runs and t+1 neighbours, a large one long flat stretches.
func gapStream(seed int64, n int, meanGap float64, origin int64) stream.TimestampSeq {
	r := rand.New(rand.NewSource(seed))
	ts := make(stream.TimestampSeq, n)
	cur := origin + 1
	for i := range ts {
		cur += int64(r.ExpFloat64() * meanGap)
		ts[i] = cur
	}
	return ts
}

func TestFeedMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slack := float64(1 + rng.Intn(8))
		float := seed%2 == 0 // float ranges, as downsampling feeds them
		var fast, naive region
		var segsFast, segsNaive []Segment
		tick, f := int64(1.7e9), 0.0
		for i := 0; i < 20000; i++ {
			tick += 1 + int64(rng.ExpFloat64()*3)
			if float {
				f += rng.Float64() * 2
			} else {
				f += float64(rng.Intn(3))
			}
			p := rpoint{t: tick, hi: f, slack: slack}
			if s, ok := fast.feed(p); ok {
				segsFast = append(segsFast, s)
			}
			if s, ok := naive.feedNaive(p); ok {
				segsNaive = append(segsNaive, s)
			}
			vf, vn := fast.vs, naive.vs
			if len(vf) != len(vn) {
				t.Fatalf("seed %d step %d: %d vs %d vertices", seed, i, len(vf), len(vn))
			}
			for k := range vf {
				if vf[k] != vn[k] {
					t.Fatalf("seed %d step %d vertex %d: %v vs %v", seed, i, k, vf[k], vn[k])
				}
			}
		}
		if s, ok := fast.close(); ok {
			segsFast = append(segsFast, s)
		}
		if s, ok := naive.close(); ok {
			segsNaive = append(segsNaive, s)
		}
		if len(segsFast) != len(segsNaive) || len(segsFast) < 20 {
			t.Fatalf("seed %d: %d vs %d segments", seed, len(segsFast), len(segsNaive))
		}
		for i := range segsFast {
			if segsFast[i] != segsNaive[i] {
				t.Fatalf("seed %d segment %d: %+v vs %+v", seed, i, segsFast[i], segsNaive[i])
			}
		}
	}
}

// FuzzFeedMatchesNaive holds region.feed to feedNaive bit for bit on a
// fuzzer-chosen constraint stream: after every constraint the two regions'
// vertex arrays, and every segment either emits, are the same float64 bits.
// Each constraint is two bytes. The first is the gap to the previous
// instant (its low five bits; ×64 when the top bit is set; 0 is a
// same-instant refeed, 1 a t+1 neighbour) and, in bits 5–6, the slack: under
// eps, a hundredth, one count or γ. The second is the rise: an integer
// count (its low three bits) or, with the top bit set, its low seven bits
// in tenths. sel picks the time origin and γ.
func FuzzFeedMatchesNaive(f *testing.F) {
	for sel := range fuzzOrigins {
		f.Add(byte(sel), []byte{1, 1, 0, 0, 1, 2, 0x21, 1, 3, 0, 0x41, 0x85, 1, 0x93, 0x61, 1})
		f.Add(byte(sel+3), []byte{0x81, 7, 1, 0, 1, 0, 0x9f, 3, 0x20, 0x81, 0x60, 0xff, 2, 1})
	}
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		if len(data) > 512 {
			return
		}
		gamma := float64(1 + sel>>2%16)
		slacks := [4]float64{eps / 10, 0.01, 1, gamma}
		var fast, naive region
		tick, hi := fuzzOrigins[int(sel)%len(fuzzOrigins)]+1, 0.0
		for i := 0; i+1 < len(data); i += 2 {
			g, rise := data[i], data[i+1]
			gap := int64(g & 0x1f)
			if g&0x80 != 0 {
				gap <<= 6
			}
			tick += gap
			if rise&0x80 != 0 {
				hi += float64(rise&0x7f) / 10
			} else {
				hi += float64(rise & 7)
			}
			p := rpoint{t: tick, hi: hi, slack: slacks[g>>5&3]}
			sf, okf := fast.feed(p)
			sn, okn := naive.feedNaive(p)
			if okf != okn || okf && !sameSegmentBits(sf, sn) {
				t.Fatalf("step %d (%+v): fast emitted %+v (%v), naive %+v (%v)", i/2, p, sf, okf, sn, okn)
			}
			if !sameVertexBits(fast.vs, naive.vs) {
				t.Fatalf("step %d (%+v): fast region %v, naive %v", i/2, p, fast.vs, naive.vs)
			}
		}
		sf, okf := fast.close()
		sn, okn := naive.close()
		if okf != okn || okf && !sameSegmentBits(sf, sn) {
			t.Fatalf("close: fast emitted %+v (%v), naive %+v (%v)", sf, okf, sn, okn)
		}
	})
}

func sameSegmentBits(s, u Segment) bool {
	return math.Float64bits(s.A) == math.Float64bits(u.A) && math.Float64bits(s.Y) == math.Float64bits(u.Y) &&
		s.Start == u.Start && s.End == u.End
}

func sameVertexBits(vs, us []vertex) bool {
	return slices.EqualFunc(vs, us, func(v, u vertex) bool {
		return math.Float64bits(v.slope) == math.Float64bits(u.slope) && math.Float64bits(v.value) == math.Float64bits(u.value)
	})
}

// unitSquare is the region [0, 1]² of the (a, y) plane, counter-clockwise.
func unitSquare() []vertex { return []vertex{{0, 0}, {1, 0}, {1, 1}, {0, 1}} }

// area is the shoelace area of a counter-clockwise vertex list.
func area(vs []vertex) float64 {
	var s float64
	for i, v := range vs {
		s += v.cross(vs[(i+1)%len(vs)])
	}
	return s / 2
}

// randBound draws a bound of random side, functional and level.
func randBound(r *rand.Rand) (x float64, b bound) {
	sgn := 1.0
	if r.Intn(2) == 0 {
		sgn = -1
	}
	return r.NormFloat64() * 2, bound{sgn, r.NormFloat64()}
}

// naiveHalfPlane is b at x as feedNaive's twins state it.
func naiveHalfPlane(x float64, b bound) halfPlane { return halfPlane{b.sgn * x, b.sgn, b.c} }

// clipCase is a bound clipping the unit square, with the vertex count and
// area of what it keeps.
type clipCase struct {
	name  string
	x     float64
	b     bound
	verts int
	area  float64
}

var (
	clipKeeps   = []clipCase{{"keeps interior", 1, bound{1, 1.5}, 5, 0.875}, {"steep", 0.5, bound{-1, -0.5}, 4, 0.75}}
	clipEmpty   = clipCase{"to empty", 1, bound{1, -1}, 0, 0}
	clipNoOp    = clipCase{"no-op", 1, bound{1, 5}, 4, 1}
	clipThrough = clipCase{"through vertex", 1, bound{-1, -1}, 3, 0.5}
)

// checkClip clips the unit square by c's bound and checks that what is kept
// has c's vertex count and area and lies on the bound's side.
func checkClip(t *testing.T, c clipCase) []vertex {
	t.Helper()
	var buf []vertex
	got := clip(unitSquare(), c.x, c.b, &buf)
	if len(got) != c.verts || len(got) >= 3 && math.Abs(area(got)-c.area) > 1e-12 {
		t.Errorf("%s: %v, want %d vertices of area %v", c.name, got, c.verts, c.area)
	}
	for _, v := range got {
		if c.b.sgn*(c.x*v.slope+v.value) > c.b.c+eps {
			t.Errorf("%s: vertex %v outside the bound", c.name, v)
		}
	}
	return got
}

// TestClipKeepsInterior: a bound that cuts the region keeps the part on its
// side.
func TestClipKeepsInterior(t *testing.T) {
	for _, c := range clipKeeps {
		checkClip(t, c)
	}
}

// TestClipToEmpty: a bound that takes the whole region leaves nothing.
func TestClipToEmpty(t *testing.T) { checkClip(t, clipEmpty) }

// TestClipNoOp: a bound that takes nothing re-emits the region bit for bit.
func TestClipNoOp(t *testing.T) {
	if got := checkClip(t, clipNoOp); !sameVertexBits(got, unitSquare()) {
		t.Errorf("no-op clip rewrote the region: %v", got)
	}
}

// TestClipThroughVertex: a boundary through two vertices drops only what
// lies beyond it.
func TestClipThroughVertex(t *testing.T) { checkClip(t, clipThrough) }

// TestClipIdempotent: clipping again by the same bound changes nothing.
func TestClipIdempotent(t *testing.T) {
	for _, c := range append(slices.Clone(clipKeeps), clipEmpty, clipNoOp, clipThrough) {
		var buf, again []vertex
		once := clip(unitSquare(), c.x, c.b, &buf)
		if twice := clip(once, c.x, c.b, &again); !sameVertexBits(twice, once) {
			t.Errorf("%s: clipping twice gives %v, once %v", c.name, twice, once)
		}
	}
}

// clipSequences clips the unit square 500 times by up to eight random bounds
// in sequence, reusing clip's buffers, and after each clip calls check with
// the region before it, the region after it and every bound applied so far,
// the last one included.
func clipSequences(check func(n, i int, before, got []vertex, xs []float64, bs []bound)) {
	r := rand.New(rand.NewSource(1))
	var bufs [2][]vertex
	for n := 0; n < 500; n++ {
		vs := unitSquare()
		var xs []float64
		var bs []bound
		for i := 0; i < 8 && len(vs) > 0; i++ {
			x, b := randBound(r)
			got := clip(vs, x, b, &bufs[i%2])
			xs, bs = append(xs, x), append(bs, b)
			check(n, i, vs, got, xs, bs)
			vs = got
		}
	}
}

// TestClipIntoMatchesClip: clip, writing into a reused buffer, gives the
// allocating general clip's vertex list bit for bit.
func TestClipIntoMatchesClip(t *testing.T) {
	clipSequences(func(n, i int, before, got []vertex, xs []float64, bs []bound) {
		k := len(bs) - 1
		if want := clipNaive(before, naiveHalfPlane(xs[k], bs[k])); !sameVertexBits(got, want) {
			t.Fatalf("case %d clip %d: got %v, want %v", n, i, got, want)
		}
	})
}

// TestSequentialClipsMatchSinglePredicate: every vertex kept by a sequence of
// clips, and the centroid of a region with an interior, satisfies every
// bound applied.
func TestSequentialClipsMatchSinglePredicate(t *testing.T) {
	clipSequences(func(n, i int, _, got []vertex, xs []float64, bs []bound) {
		pts := slices.Clone(got)
		if len(got) >= 3 {
			pts = append(pts, (&region{vs: got}).centroid())
		}
		for _, v := range pts {
			for k, b := range bs {
				if b.sgn*(xs[k]*v.slope+v.value) > b.c+1e-6 {
					t.Fatalf("case %d clip %d: %v outside bound %d of %v", n, i, v, k, got)
				}
			}
		}
	})
}

// TestPolygonAreaMonotoneUnderClipping: a clip never grows the region.
func TestPolygonAreaMonotoneUnderClipping(t *testing.T) {
	clipSequences(func(n, i int, before, got []vertex, _ []float64, _ []bound) {
		if len(got) >= 3 && area(got) > area(before)+1e-9 {
			t.Fatalf("case %d clip %d: area grew %v → %v", n, i, area(before), area(got))
		}
	})
}

// TestCutSkipMatchesDoubleClip: region.cut clips only by the bounds its
// one scoring pass finds cutting, and leaves the region feedNaive's
// unconditional double clip gives, bit for bit — bounds through a vertex
// and ones that hold the whole region included — or reports it empty
// exactly when that would have fewer than three vertices.
func TestCutSkipMatchesDoubleClip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	skipped := 0
	for n := 0; n < 500; n++ {
		var reg region
		reg.scr.bufs[0] = unitSquare()
		reg.vs = reg.scr.bufs[0]
		for i := 0; i < 3; i++ {
			x, b := randBound(r)
			reg.vs = clip(reg.vs, x, b, &reg.scr.tmp)
		}
		reg.scr.bufs[0] = append(reg.scr.bufs[0][:0], reg.vs...)
		reg.vs = reg.scr.bufs[0]
		for i := 0; i < 8 && len(reg.vs) >= 3; i++ {
			x := r.NormFloat64() * 2
			v := reg.vs[r.Intn(len(reg.vs))]
			level := func() float64 {
				switch s := x*v.slope + v.value; r.Intn(3) {
				case 0:
					return r.NormFloat64()
				case 1:
					return s // the boundary through a vertex
				default:
					return s + 3 // the whole region inside
				}
			}
			up, dn := level(), -level()+r.Float64()
			want := clipNaive(clipNaive(reg.vs, halfPlane{x, 1, up}), halfPlane{-x, -1, dn})
			before := slices.Clone(reg.vs)
			if !reg.cut(x, up, dn) {
				if len(want) >= 3 {
					t.Fatalf("case %d cut %d: reported empty, naive %v", n, i, want)
				}
				if !sameVertexBits(reg.vs, before) {
					t.Fatalf("case %d cut %d: an empty cut moved the region", n, i)
				}
				break
			}
			if sameVertexBits(reg.vs, before) {
				skipped++
			}
			if !sameVertexBits(reg.vs, want) {
				t.Fatalf("case %d cut %d: got %v, want %v", n, i, reg.vs, want)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no redundant constraint was exercised")
	}
}

// seedPair opens a window at (t0, hi0, slack0) in two regions and feeds p,
// which seeds the window's region, to one through feed and to the other
// through feedNaive, whose seed is the general four-half-plane
// intersection. emitted is whether feed emitted a segment.
func seedPair(t0 int64, hi0, slack0 float64, p rpoint) (fast, naive region, emitted bool) {
	for _, r := range []*region{&fast, &naive} {
		r.roll(rpoint{t: t0, hi: hi0, slack: slack0})
	}
	_, emitted = fast.feed(p)
	naive.feedNaive(p)
	return fast, naive, emitted
}

// randSeeds draws n seeding constraint pairs at the fuzz origins, with
// integer or float rises and slacks drawn from slacks, and calls check on
// the two regions each seeds.
func randSeeds(n int, slacks []float64, check func(t0 int64, hi0 float64, p rpoint, fast, naive region, emitted bool)) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		t0 := fuzzOrigins[r.Intn(len(fuzzOrigins))] + int64(r.Intn(100))
		hi0 := float64(r.Intn(50))
		p := rpoint{t: t0 + 1 + int64(r.Intn(100)), hi: hi0 + float64(r.Intn(50)), slack: slacks[r.Intn(len(slacks))]}
		if r.Intn(2) == 0 {
			p.hi = hi0 + r.Float64()*50
		}
		fast, naive, emitted := seedPair(t0, hi0, slacks[r.Intn(len(slacks))], p)
		check(t0, hi0, p, fast, naive, emitted)
	}
}

// TestBoundedIntersectionParallelogram: the constraints (t = 1, [2, 3]) and
// (t = 2, [4, 6]) seed a parallelogram of area 2 holding the line
// 2.5 + 2·(t − 1), the general intersection's vertex list bit for bit.
func TestBoundedIntersectionParallelogram(t *testing.T) {
	fast, naive, _ := seedPair(1, 3, 1, rpoint{t: 2, hi: 6, slack: 2})
	if !fast.open || math.Abs(area(fast.vs)-2) > 1e-12 || !fast.insideBy(2, 2.5-fast.v0, 0) {
		t.Fatalf("parallelogram seed: %v", fast.vs)
	}
	if !naive.open || !sameVertexBits(fast.vs, naive.vs) {
		t.Fatalf("parallelogram seed %v, general intersection %v", fast.vs, naive.vs)
	}
}

// TestBoundedIntersectionIntoMatches: region.seed, writing into the region's
// buffer, gives the general intersection's vertex list bit for bit and opens
// the window exactly when it does, over random seeds at three time origins.
func TestBoundedIntersectionIntoMatches(t *testing.T) {
	randSeeds(2000, []float64{0, eps / 10, 0.01, 1, 8}, func(t0 int64, hi0 float64, p rpoint, fast, naive region, _ bool) {
		if fast.open != naive.open || !sameVertexBits(fast.vs, naive.vs) {
			t.Fatalf("seed of (%d, %v) and %+v: got %v (open %v), want %v (open %v)", t0, hi0, p, fast.vs, fast.open, naive.vs, naive.open)
		}
	})
}

// TestBoundedIntersectionIntoDegenerate: seeds whose slacks are 0 or under
// eps give regions too thin to have an interior as the general intersection
// does, and on each such region feed rolls: it emits the first constraint's
// point segment and keeps the second pending.
func TestBoundedIntersectionIntoDegenerate(t *testing.T) {
	degenerate := 0
	randSeeds(2000, []float64{0, eps / 10}, func(t0 int64, hi0 float64, p rpoint, fast, naive region, emitted bool) {
		if fast.open != naive.open || !sameVertexBits(fast.vs, naive.vs) {
			t.Fatalf("seed of (%d, %v) and %+v: got %v (open %v), want %v (open %v)", t0, hi0, p, fast.vs, fast.open, naive.vs, naive.open)
		}
		if !fast.open {
			degenerate++
			if !emitted || !fast.pending || fast.winStart != p.t {
				t.Fatalf("degenerate seed of (%d, %v) and %+v did not roll", t0, hi0, p)
			}
		}
	})
	if degenerate == 0 {
		t.Fatal("no degenerate seed was exercised")
	}
}

// TestBoundedIntersectionEmpty: two exact constraints, (t = 1, 3) and
// (t = 2, 6), meet in a single point, a seed with no interior: feed, like
// feedNaive, rolls, emitting the point segment 3 at t = 1 and keeping the
// second constraint pending.
func TestBoundedIntersectionEmpty(t *testing.T) {
	var fast, naive region
	for _, r := range []*region{&fast, &naive} {
		r.roll(rpoint{t: 1, hi: 3})
	}
	p := rpoint{t: 2, hi: 6}
	seg, emitted := fast.feed(p)
	nseg, nemitted := naive.feedNaive(p)
	if !emitted || seg != (Segment{Y: 3, Start: 1, End: 1}) {
		t.Fatalf("point seed: emitted %+v (%v), want the point segment 3 at t = 1", seg, emitted)
	}
	if nemitted != emitted || !sameSegmentBits(seg, nseg) {
		t.Fatalf("point seed: feed emitted %+v, feedNaive %+v (%v)", seg, nseg, nemitted)
	}
	if fast.open || !fast.pending || fast.winStart != 2 || fast.v0 != 6 {
		t.Fatalf("point seed did not roll: %+v", fast)
	}
}

// TestCentroidInsidePolygon: the centroid of a region with an interior is
// its area centroid, strictly inside it.
func TestCentroidInsidePolygon(t *testing.T) {
	sq := region{vs: unitSquare()}
	if c := sq.centroid(); c != (vertex{0.5, 0.5}) || !sq.insideBy(c.slope, c.value, 0) {
		t.Fatalf("square: centroid %v", c)
	}
}

// TestCentroidDegenerate: a region of no interior gives its vertex mean, an
// empty one the origin.
func TestCentroidDegenerate(t *testing.T) {
	if c := (&region{vs: []vertex{{1, 1}, {3, 3}}}).centroid(); c != (vertex{2, 2}) {
		t.Fatalf("segment: centroid %v, want its midpoint", c)
	}
	if c := (&region{}).centroid(); c != (vertex{}) {
		t.Fatalf("empty: centroid %v", c)
	}
}

// TestCentroidSliverFarFromOrigin: the centroid stays inside the
// 10⁻⁸-wide, 10⁵-long sliver at an intercept of −10⁸ that a region in
// absolute coordinates becomes, where shoelace sums over absolute
// coordinates cancel to noise wider than the sliver (a third of these land
// outside).
func TestCentroidSliverFarFromOrigin(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		o := vertex{0.1 + r.Float64()*0.1, -1e8 * (1 + r.Float64())}
		long := vertex{1e-4 * (1 + r.Float64()), -1e5 * (1 + r.Float64())}
		wide := vertex{1e-8 * (1 + r.Float64()), 0}
		ol := vertex{o.slope + long.slope, o.value + long.value}
		sliver := region{vs: []vertex{o, ol, {ol.slope + wide.slope, ol.value + wide.value}, {o.slope + wide.slope, o.value + wide.value}}}
		if c := sliver.centroid(); !sliver.insideBy(c.slope, c.value, 0) {
			t.Fatalf("sliver %d: centroid %v outside %v", i, c, sliver.vs)
		}
	}
}

// TestInsideByAndChordX: insideBy asks for the margin inside every edge and
// grants nothing on the boundary; chordX is the slope interval a value cuts
// from the region, or a miss.
func TestInsideByAndChordX(t *testing.T) {
	sq := region{vs: unitSquare()}
	for _, c := range []struct {
		q      vertex
		margin float64
		in     bool
	}{
		{vertex{0.5, 0.5}, 0.1, true},
		{vertex{0.5, 0.95}, 0.1, false},
		{vertex{0.5, 0.95}, 0.01, true},
		{vertex{0, 0}, 0, false},
		{vertex{1, 0.5}, 0, false},
		{vertex{1.5, 0.5}, 0, false},
	} {
		if got := sq.insideBy(c.q.slope, c.q.value, c.margin); got != c.in {
			t.Errorf("square: insideBy(%v, %v) = %v, want %v", c.q, c.margin, got, c.in)
		}
	}
	tri := region{vs: []vertex{{0, 0}, {2, 0}, {0, 2}}}
	for _, c := range []struct {
		r      region
		y      float64
		lo, hi float64
		ok     bool
	}{
		{sq, 0.5, 0, 1, true},
		{tri, 1, 0, 1, true},
		{tri, 0.5, 0, 1.5, true},
		{tri, 3, 0, 0, false},
		{sq, -0.5, 0, 0, false},
		{region{}, 0, 0, 0, false},
	} {
		lo, hi, ok := c.r.chordX(c.y)
		if ok != c.ok || ok && (math.Abs(lo-c.lo) > 1e-12 || math.Abs(hi-c.hi) > 1e-12) {
			t.Errorf("chordX(%v) on %v = [%v, %v] %v, want [%v, %v] %v", c.y, c.r.vs, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

// checkOneSided verifies F(t) − gamma ≤ est(t) ≤ F(t) at every integer
// instant of [lo, hi], with the upper side strict in float64 — the estimate
// exactly as computed may not exceed the true count by any margin. The
// lower side allows the rounding of one evaluation.
func checkOneSided(t *testing.T, what string, est func(int64) float64, ts stream.TimestampSeq, gamma float64, lo, hi int64) {
	t.Helper()
	i := 0
	for q := lo; q <= hi; q++ {
		for i < len(ts) && ts[i] <= q {
			i++
		}
		checkInstant(t, what, est(q), float64(i), gamma, q)
	}
}

func checkInstant(t *testing.T, what string, v, f, gamma float64, q int64) {
	t.Helper()
	if v > f {
		t.Fatalf("%s: overestimate at t=%d: F̃ = %v > F = %v (by %g)", what, q, v, f, v-f)
	}
	if v < f-gamma-1e-6 {
		t.Fatalf("%s: F̃ = %v below F − γ = %v − %v at t=%d", what, v, f, gamma, q)
	}
}

// TestOneSidedEveryInstant is the kernel's contract at the scales where it
// broke: every density, at small, Unix-second and Unix-millisecond time
// origins, at every integer instant of the history — on the open tail while
// building, after Finish, through MergeFinished and through Downsample.
func TestOneSidedEveryInstant(t *testing.T) {
	densities := []struct {
		meanGap float64
		n       int
	}{{0.3, 40000}, {3, 40000}, {20, 15000}, {500, 1000}}
	for _, origin := range []int64{0, 1.7e9, 1.7e12} {
		for _, d := range densities {
			for _, gamma := range []float64{1, 8} {
				t.Run(fmt.Sprintf("origin=%g/gap=%g/gamma=%g", float64(origin), d.meanGap, gamma), func(t *testing.T) {
					ts := gapStream(int64(d.meanGap*10)+int64(gamma), d.n, d.meanGap, origin)
					first, last := ts[0], ts[len(ts)-1]
					half := len(ts) / 2
					for ts[half] == ts[half-1] {
						half++ // partitions must be strictly time-disjoint
					}

					b, _ := New(gamma)
					for i, v := range ts {
						b.Append(v)
						if i%(len(ts)/8) == 0 {
							checkOneSided(t, "open tail", b.Estimate, ts[:i+1], gamma, b.headLow-1, v+1)
						}
					}
					checkOneSided(t, "before Finish", b.Estimate, ts, gamma, first-3, last+3)
					b.Finish()
					checkOneSided(t, "after Finish", b.Estimate, ts, gamma, first-3, last+3)

					left := buildPBE2(t, ts[:half], gamma)
					right := buildPBE2(t, ts[half:], gamma)
					parts := [][]*Summary{{left.Seal()}, {right.Seal()}}
					ds, err := Downsample(parts, 2*gamma, 1)
					if err != nil {
						t.Fatal(err)
					}
					// A downsampled curve is pinned at the instants the kernel
					// feeds — the sources' breakpoints — and trails F by the
					// count's rise in between.
					fx := dsFixture{parts: parts}
					for _, q := range fx.fedInstants(1) {
						checkInstant(t, "Downsample", ds.Estimate(q), float64(ts.CountAtOrBefore(q)), 2*gamma, q)
					}
					merged, err := mergeTwo(left, right)
					if err != nil {
						t.Fatal(err)
					}
					checkOneSided(t, "MergeFinished", merged.Estimate, ts, gamma, first-3, last+3)
				})
			}
		}
	}
}

// TestTranslationInvariant: the same gaps built at two time origins give the
// same windows and bit-equal slopes — the region never sees absolute time.
func TestTranslationInvariant(t *testing.T) {
	const shift = int64(1.7e9)
	for _, meanGap := range []float64{0.3, 3, 20, 500} {
		a := buildPBE2(t, gapStream(5, 20000, meanGap, 0), 8).Segments()
		b := buildPBE2(t, gapStream(5, 20000, meanGap, shift), 8).Segments()
		if len(a) != len(b) {
			t.Fatalf("gap %v: %d segments at origin 0, %d at %d", meanGap, len(a), len(b), shift)
		}
		for i := range a {
			if a[i].Start != b[i].Start-shift || a[i].End != b[i].End-shift || a[i].A != b[i].A {
				t.Fatalf("gap %v segment %d: %+v vs %+v", meanGap, i, a[i], b[i])
			}
		}
	}
}

// TestOneSidedOlympicSeed3 is the stream on which the benchmark's oracle
// caught the kernel overestimating (event 2 at t = 752361): per-event
// builders at the benchmark's γ, checked at every constrained instant.
func TestOneSidedOlympicSeed3(t *testing.T) {
	spec := workload.OlympicRioSpec(2016, 600_000)
	spec.Seed = 3
	base, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const gamma = 8
	for e := uint64(0); e < 32; e++ {
		ts := base.Filter(e)
		b := buildPBE2(t, ts, gamma)
		for i, v := range ts {
			if i+1 < len(ts) && ts[i+1] == v {
				continue // not the corner yet
			}
			// The corner, and the pre-rise instant of the next one.
			instants := []int64{v}
			if i+1 < len(ts) && ts[i+1] > v+1 {
				instants = append(instants, ts[i+1]-1)
			}
			f := float64(i + 1)
			for _, q := range instants {
				if est := b.Estimate(q); est > f || est < f-gamma-1e-6 {
					t.Fatalf("event %d: F̃(%d) = %v outside [F − γ, F] = [%v, %v]", e, q, est, f-gamma, f)
				}
			}
		}
	}
}
