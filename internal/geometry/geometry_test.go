package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func square() Polygon {
	return NewPolygon([]Vec2{{0, 0}, {1, 0}, {1, 1}, {0, 1}})
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestVecOps(t *testing.T) {
	v := Vec2{1, 2}
	w := Vec2{3, -1}
	if v.Add(w) != (Vec2{4, 1}) {
		t.Error("Add")
	}
	if v.Sub(w) != (Vec2{-2, 3}) {
		t.Error("Sub")
	}
	if v.Scale(2) != (Vec2{2, 4}) {
		t.Error("Scale")
	}
	if v.Cross(w) != -7 {
		t.Errorf("Cross = %v, want -7", v.Cross(w))
	}
}

func TestLineIntersection(t *testing.T) {
	// x = 1 and y = 2 meet at (1,2).
	p, ok := LineIntersection(HalfPlane{1, 0, 1}, HalfPlane{0, 1, 2})
	if !ok || !approx(p.X, 1) || !approx(p.Y, 2) {
		t.Fatalf("intersection = %v, %v", p, ok)
	}
	// Parallel lines do not intersect.
	if _, ok := LineIntersection(HalfPlane{1, 1, 0}, HalfPlane{2, 2, 5}); ok {
		t.Fatal("parallel lines reported as intersecting")
	}
}

func TestClipKeepsInterior(t *testing.T) {
	p := square().Clip(HalfPlane{1, 0, 0.5}) // x <= 0.5
	if p.Empty() {
		t.Fatal("clip emptied the square")
	}
	if !approx(p.Area(), 0.5) {
		t.Fatalf("area = %v, want 0.5", p.Area())
	}
	for _, v := range p.Vertices() {
		if v.X > 0.5+Eps {
			t.Errorf("vertex %v violates x<=0.5", v)
		}
	}
}

func TestClipToEmpty(t *testing.T) {
	p := square().Clip(HalfPlane{1, 0, -1}) // x <= -1
	if !p.Empty() {
		t.Fatalf("expected empty, got %v", p.Vertices())
	}
}

func TestClipNoOp(t *testing.T) {
	p := square().Clip(HalfPlane{1, 0, 5}) // x <= 5 contains the square
	if !approx(p.Area(), 1) {
		t.Fatalf("area after no-op clip = %v, want 1", p.Area())
	}
}

func TestClipThroughVertex(t *testing.T) {
	// Diagonal through (0,0) and (1,1): keep y >= x, i.e. x - y <= 0.
	p := square().Clip(HalfPlane{1, -1, 0})
	if !approx(p.Area(), 0.5) {
		t.Fatalf("area = %v, want 0.5", p.Area())
	}
}

func TestSequentialClipsMatchSinglePredicate(t *testing.T) {
	// Property: after clipping by random half-planes, every surviving
	// vertex satisfies all applied half-planes, and every original vertex
	// satisfying all half-planes is still inside the polygon.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := square()
		var hs []HalfPlane
		for i := 0; i < 4; i++ {
			h := HalfPlane{r.Float64()*2 - 1, r.Float64()*2 - 1, r.Float64()*2 - 1}
			hs = append(hs, h)
			p = p.Clip(h)
		}
		for _, v := range p.Vertices() {
			for _, h := range hs {
				if h.A*v.X+h.B*v.Y > h.C+1e-6 {
					return false
				}
			}
		}
		if !p.Empty() {
			// Centroid of a non-empty region satisfies all constraints.
			c := p.Centroid()
			for _, h := range hs {
				if h.A*c.X+h.B*c.Y > h.C+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCentroidInsidePolygon(t *testing.T) {
	p := square()
	c := p.Centroid()
	if !approx(c.X, 0.5) || !approx(c.Y, 0.5) {
		t.Fatalf("centroid = %v, want (0.5,0.5)", c)
	}
	if !p.Contains(c) {
		t.Fatal("centroid not contained")
	}
}

func TestCentroidDegenerate(t *testing.T) {
	p := NewPolygon([]Vec2{{1, 1}, {3, 3}})
	c := p.Centroid()
	if !approx(c.X, 2) || !approx(c.Y, 2) {
		t.Fatalf("degenerate centroid = %v, want (2,2)", c)
	}
	if (Polygon{}).Centroid() != (Vec2{}) {
		t.Fatal("empty centroid should be zero value")
	}
}

func TestContains(t *testing.T) {
	p := square()
	if !p.Contains(Vec2{0.5, 0.5}) {
		t.Error("interior point reported outside")
	}
	if !p.Contains(Vec2{0, 0}) {
		t.Error("vertex reported outside")
	}
	if p.Contains(Vec2{1.5, 0.5}) {
		t.Error("exterior point reported inside")
	}
	if (Polygon{}).Contains(Vec2{0, 0}) {
		t.Error("empty polygon contains nothing")
	}
}

// TestInsideByAndChordX: InsideBy asks for the margin inside every edge and
// grants nothing on the boundary; ChordX is the X interval a horizontal line
// cuts from the polygon, or a miss.
func TestInsideByAndChordX(t *testing.T) {
	p := square()
	for _, c := range []struct {
		q      Vec2
		margin float64
		in     bool
	}{
		{Vec2{0.5, 0.5}, 0.1, true},
		{Vec2{0.5, 0.95}, 0.1, false},
		{Vec2{0.5, 0.95}, 0.01, true},
		{Vec2{0, 0}, 0, false},
		{Vec2{1, 0.5}, 0, false},
		{Vec2{1.5, 0.5}, 0, false},
	} {
		if got := p.InsideBy(c.q, c.margin); got != c.in {
			t.Errorf("square: InsideBy(%v, %v) = %v, want %v", c.q, c.margin, got, c.in)
		}
	}
	tri := NewPolygon([]Vec2{{0, 0}, {2, 0}, {0, 2}})
	for _, c := range []struct {
		p      Polygon
		y      float64
		lo, hi float64
		ok     bool
	}{
		{p, 0.5, 0, 1, true},
		{tri, 1, 0, 1, true},
		{tri, 0.5, 0, 1.5, true},
		{tri, 3, 0, 0, false},
		{p, -0.5, 0, 0, false},
		{Polygon{}, 0, 0, 0, false},
	} {
		lo, hi, ok := c.p.ChordX(c.y)
		if ok != c.ok || ok && (!approx(lo, c.lo) || !approx(hi, c.hi)) {
			t.Errorf("ChordX(%v) on %v = [%v, %v] %v, want [%v, %v] %v", c.y, c.p.Vertices(), lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

func TestBoundedIntersectionParallelogram(t *testing.T) {
	// Constraints of two PBE-2 points (t=1, [2,3]) and (t=2, [4,6]):
	// 2 <= a+b <= 3 and 4 <= 2a+b <= 6.
	hs := [4]HalfPlane{
		{1, 1, 3},    // a + b <= 3
		{-1, -1, -2}, // a + b >= 2
		{2, 1, 6},    // 2a + b <= 6
		{-2, -1, -4}, // 2a + b >= 4
	}
	p, ok := BoundedIntersection(hs)
	if !ok || p.Empty() {
		t.Fatalf("expected bounded region, got ok=%v vertices=%v", ok, p.Vertices())
	}
	// Area of the parallelogram: |Δ1 × Δ2| / |det| = (1·2)/1 = 2.
	if !approx(p.Area(), 2) {
		t.Fatalf("area = %v, want 2", p.Area())
	}
	// The line a=2, b=1 satisfies both points exactly at the top: check a
	// known feasible point (a=2, b=0.5): a+b=2.5 ok; 2a+b=4.5 ok.
	if !p.Contains(Vec2{2, 0.5}) {
		t.Error("known feasible point excluded")
	}
}

func TestBoundedIntersectionEmpty(t *testing.T) {
	// Disjoint strips: a+b <= 0 and a+b >= 1 cannot both hold.
	hs := [4]HalfPlane{
		{1, 1, 0},
		{-1, -1, -1},
		{2, 1, 6},
		{-2, -1, -4},
	}
	p, ok := BoundedIntersection(hs)
	if ok && !p.Empty() {
		t.Fatalf("expected empty, got %v", p.Vertices())
	}
}

func TestConvexHull(t *testing.T) {
	pts := []Vec2{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.25, 0.5}}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull = %v, want square corners", hull)
	}
	p := Polygon{vs: hull}
	if !approx(p.Area(), 1) {
		t.Fatalf("hull area = %v, want 1", p.Area())
	}
}

func TestConvexHullSmallInputs(t *testing.T) {
	if h := ConvexHull(nil); len(h) != 0 {
		t.Errorf("hull(nil) = %v", h)
	}
	if h := ConvexHull([]Vec2{{1, 1}}); len(h) != 1 {
		t.Errorf("hull(point) = %v", h)
	}
	if h := ConvexHull([]Vec2{{1, 1}, {1, 1}}); len(h) != 1 {
		t.Errorf("hull(dup points) = %v", h)
	}
}

func TestPolygonAreaMonotoneUnderClipping(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := square()
		prev := p.Area()
		for i := 0; i < 6; i++ {
			h := HalfPlane{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			p = p.Clip(h)
			a := p.Area()
			if a > prev+1e-6 {
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
