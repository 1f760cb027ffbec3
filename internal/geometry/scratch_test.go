package geometry

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randPoly builds a random convex polygon by clipping the unit square a few
// times (possibly down to a degenerate or empty region).
func randPoly(r *rand.Rand) Polygon {
	p := square()
	for i, n := 0, r.Intn(4); i < n; i++ {
		p = p.Clip(HalfPlane{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()})
	}
	return p
}

func samePolygon(a, b Polygon) bool {
	if len(a.vs) != len(b.vs) {
		return false
	}
	for i := range a.vs {
		if a.vs[i] != b.vs[i] {
			return false
		}
	}
	return true
}

func TestClipIntoMatchesClip(t *testing.T) {
	var buf []Vec2
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r)
		for i := 0; i < 8; i++ {
			h := HalfPlane{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			want := p.Clip(h)
			got := p.ClipInto(h, &buf)
			if !samePolygon(got, want) {
				t.Logf("clip mismatch: got %v want %v", got.vs, want.vs)
				return false
			}
			p = want // keep clipping the shrinking region, reusing buf
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedIntersectionIntoMatches(t *testing.T) {
	var buf []Vec2
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Seed constraints like PBE-2's: two constraint points at distinct
		// instants, each contributing an upper and a lower half-plane.
		t1 := float64(r.Intn(100))
		t2 := t1 + 1 + float64(r.Intn(100))
		f1 := float64(r.Intn(50))
		f2 := f1 + float64(r.Intn(50))
		gamma := 1 + r.Float64()*8
		hs := [4]HalfPlane{
			{A: t1, B: 1, C: f1},
			{A: -t1, B: -1, C: gamma - f1},
			{A: t2, B: 1, C: f2},
			{A: -t2, B: -1, C: gamma - f2},
		}
		want, okW := BoundedIntersection(hs)
		got, okG := BoundedIntersectionInto(hs, &buf)
		if okW != okG || !samePolygon(got, want) {
			t.Logf("seed intersection mismatch: got %v (%v) want %v (%v)", got.vs, okG, want.vs, okW)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedIntersectionIntoDegenerate(t *testing.T) {
	// Parallel seed constraints: unbounded/degenerate regions must report
	// the same ok and vertices as the allocating path.
	hs := [4]HalfPlane{
		{A: 1, B: 1, C: 1},
		{A: 1, B: 1, C: 2},
		{A: 1, B: 1, C: 3},
		{A: 1, B: 1, C: 4},
	}
	var buf []Vec2
	want, okW := BoundedIntersection(hs)
	got, okG := BoundedIntersectionInto(hs, &buf)
	if okW != okG || !samePolygon(got, want) {
		t.Fatalf("degenerate mismatch: got %v (%v) want %v (%v)", got.vs, okG, want.vs, okW)
	}
}

// TestInsideSkipMatchesDoubleClip: clipping only by the half-planes Inside
// reports as cutting gives the polygon the unconditional double Clip gives,
// bit for bit — including half-planes whose boundary runs exactly through a
// vertex and ones that contain the whole polygon.
func TestInsideSkipMatchesDoubleClip(t *testing.T) {
	skipped := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r)
		if p.Empty() {
			return true
		}
		randHalfPlane := func() HalfPlane {
			h := HalfPlane{A: r.NormFloat64(), B: r.NormFloat64()}
			v := p.vs[r.Intn(len(p.vs))]
			through := h.A*v.X + h.B*v.Y
			switch r.Intn(3) {
			case 0:
				h.C = r.NormFloat64()
			case 1:
				h.C = through // boundary through a vertex
			default:
				h.C = through + 3 // far side: contains the unit square's remains
			}
			return h
		}
		for i := 0; i < 8 && !p.Empty(); i++ {
			h1, h2 := randHalfPlane(), randHalfPlane()
			want := p.Clip(h1).Clip(h2)
			got := p
			in1, in2 := p.Inside(h1, h2)
			switch {
			case in1 && in2:
				skipped++
			case in1:
				got = p.Clip(h2)
			case in2:
				got = p.Clip(h1)
			default:
				got = want
			}
			if !samePolygon(got, want) {
				t.Logf("skip mismatch (in1=%v in2=%v): got %v want %v", in1, in2, got.vs, want.vs)
				return false
			}
			p = want
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("no fully redundant pair was exercised")
	}
}

// TestCentroidSliverFarFromOrigin: the shape PBE-2's feasible region takes
// in absolute (slope, intercept) coordinates — 10⁻⁸ wide, 10⁵ long, at an
// intercept of −10⁸. Shoelace sums over absolute coordinates cancel to noise
// larger than the sliver is wide (a third of these land outside).
func TestCentroidSliverFarFromOrigin(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		o := Vec2{0.1 + r.Float64()*0.1, -1e8 * (1 + r.Float64())}
		long := Vec2{1e-4 * (1 + r.Float64()), -1e5 * (1 + r.Float64())}
		wide := Vec2{1e-8 * (1 + r.Float64()), 0}
		p := NewPolygon([]Vec2{o, o.Add(long), o.Add(long).Add(wide), o.Add(wide)})
		if c := p.Centroid(); !p.Contains(c) {
			t.Fatalf("sliver %d: centroid %v outside %v", i, c, p.vs)
		}
	}
}
