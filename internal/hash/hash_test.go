package hash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFamilyValidation(t *testing.T) {
	if _, err := NewFamily(0, 10, 1); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewFamily(-1, 10, 1); err == nil {
		t.Error("d<0 accepted")
	}
	if _, err := NewFamily(3, 0, 1); err == nil {
		t.Error("w=0 accepted")
	}
	f, err := NewFamily(3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 3 || f.Width() != 10 {
		t.Fatalf("Len=%d Width=%d", f.Len(), f.Width())
	}
}

func TestDeterministicAcrossConstruction(t *testing.T) {
	f1, _ := NewFamily(4, 100, 42)
	f2, _ := NewFamily(4, 100, 42)
	for i := 0; i < 4; i++ {
		for x := uint64(0); x < 1000; x++ {
			if f1.Hash(i, x) != f2.Hash(i, x) {
				t.Fatalf("same seed produced different hashes at row %d x %d", i, x)
			}
		}
	}
	f3, _ := NewFamily(4, 100, 43)
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if f1.Hash(0, x) == f3.Hash(0, x) {
			same++
		}
	}
	if same > 200 { // expected ~10 collisions by chance
		t.Fatalf("different seeds produced suspiciously similar hashes (%d/1000)", same)
	}
}

func TestRange(t *testing.T) {
	f, _ := NewFamily(5, 37, 7)
	check := func(x uint64) bool {
		for i := 0; i < f.Len(); i++ {
			h := f.Hash(i, x)
			if h < 0 || h >= 37 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformity(t *testing.T) {
	// Chi-squared test on bucket occupancy for sequential keys (the hard
	// case for weak hashes). With w=64 buckets and n=64k keys the expected
	// count per bucket is 1024; chi2 with 63 dof should be well below 120
	// for a healthy hash (p ≈ 1e-5 cutoff).
	const w = 64
	const n = 64 * 1024
	f, _ := NewFamily(3, w, 12345)
	for row := 0; row < f.Len(); row++ {
		var counts [w]int
		for x := uint64(0); x < n; x++ {
			counts[f.Hash(row, x)]++
		}
		expected := float64(n) / w
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		if chi2 > 120 {
			t.Errorf("row %d: chi2 = %.1f, suspiciously non-uniform", row, chi2)
		}
	}
}

func TestPairwiseCollisionRate(t *testing.T) {
	// For a pairwise-independent family, Pr[h(x)=h(y)] ≈ 1/w for x≠y.
	const w = 128
	f, _ := NewFamily(1, w, 99)
	pairs := 0
	collisions := 0
	for x := uint64(0); x < 400; x++ {
		for y := x + 1; y < 400; y++ {
			pairs++
			if f.Hash(0, x) == f.Hash(0, y) {
				collisions++
			}
		}
	}
	rate := float64(collisions) / float64(pairs)
	if math.Abs(rate-1.0/w) > 3.0/w {
		t.Errorf("collision rate %.5f, want about %.5f", rate, 1.0/w)
	}
}

func TestFastModMatchesHardwareMod(t *testing.T) {
	// The reciprocal mod must agree with % for every width the sketches can
	// use and across the full operand range [0, p).
	r := rand.New(rand.NewSource(8))
	widths := []uint64{2, 3, 7, 37, 64, 100, 272, 1 << 16, 1<<31 - 1, 1 << 31, 1 << 40}
	for _, w := range widths {
		mHi, mLo := modReciprocal(w)
		for i := 0; i < 5000; i++ {
			v := uint64(r.Int63()) % mersenne61
			if got, want := fastMod(v, w, mHi, mLo), v%w; got != want {
				t.Fatalf("fastMod(%d, %d) = %d, want %d", v, w, got, want)
			}
		}
		for _, v := range []uint64{0, 1, w - 1, w, w + 1, mersenne61 - 1} {
			if got, want := fastMod(v, w, mHi, mLo), v%w; got != want {
				t.Fatalf("fastMod(%d, %d) = %d, want %d", v, w, got, want)
			}
		}
	}
	// Width 1 is special-cased in Apply.
	f, _ := NewFamily(2, 1, 5)
	for x := uint64(0); x < 100; x++ {
		if f.Hash(0, x) != 0 || f.Hash(1, x) != 0 {
			t.Fatalf("w=1 must map everything to bucket 0")
		}
	}
}

func TestMersenneArithmetic(t *testing.T) {
	// Spot-check the modular primitives against big-integer-free identities.
	if got := modMersenne(mersenne61); got != 0 {
		t.Errorf("modMersenne(p) = %d, want 0", got)
	}
	if got := modMersenne(mersenne61 + 5); got != 5 {
		t.Errorf("modMersenne(p+5) = %d, want 5", got)
	}
	if got := modMersenne(math.MaxUint64); got != math.MaxUint64%mersenne61 {
		t.Errorf("modMersenne(max) = %d, want %d", got, uint64(math.MaxUint64)%mersenne61)
	}
	// mulModMersenne against direct computation for small operands.
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 50; b++ {
			if got := mulModMersenne(a, b); got != (a*b)%mersenne61 {
				t.Fatalf("mulModMersenne(%d,%d) = %d", a, b, got)
			}
		}
	}
	// Large-operand identity: (p−1)² mod p = 1.
	if got := mulModMersenne(mersenne61-1, mersenne61-1); got != 1 {
		t.Errorf("(p-1)^2 mod p = %d, want 1", got)
	}
}

// identityMismatch returns the first probe at which f's only function, through
// Hash or through Indexes, sends x anywhere but x mod w.
func identityMismatch(f Family, w uint64) (x uint64, found bool) {
	probes := []uint64{1<<40 + 3, mersenne61 - 1}
	for x := uint64(0); x < 1<<20; x++ {
		probes = append(probes, x)
	}
	dst := make([]int, 1)
	for _, x := range probes {
		f.Indexes(x, dst)
		if f.Hash(0, x) != int(x%w) || dst[0] != int(x%w) {
			return x, true
		}
	}
	return 0, false
}

// TestIdentityIsModulo: the identity family is x mod w over every id a level
// can see — ids below 2²⁰, and far beyond any K at 2⁴⁰+3 and 2⁶¹−2 — which is
// what lets a one-row sketch under it serve as a collision-free level. Any
// other coefficients break it somewhere in that range.
func TestIdentityIsModulo(t *testing.T) {
	for _, w := range []uint64{1, 2, 4, 64, 1024, 1 << 24} {
		f := Identity(int(w))
		if f.Len() != 1 || f.Width() != int(w) {
			t.Fatalf("Identity(%d): %d functions onto %d buckets", w, f.Len(), f.Width())
		}
		if x, found := identityMismatch(f, w); found {
			t.Fatalf("Identity(%d) maps %d to %d, want %d", w, x, f.Hash(0, x), x%w)
		}
		if w == 1 {
			continue // every function maps everything to bucket 0
		}
		for _, ab := range [][2]uint64{{2, 0}, {1, 1}, {1, w}, {1, 1 << 24}, {mersenne61 - 1, 0}, {3, 5}} {
			other := Family{fns: []Func{newFunc(ab[0], ab[1], w)}}
			if _, found := identityMismatch(other, w); !found {
				t.Errorf("w=%d: a=%d b=%d also passes as the identity", w, ab[0], ab[1])
			}
		}
	}
}

// TestFamilyEqual: families are equal exactly when they hash alike — the same
// seed, depth and width — and the identity equals no seeded family.
func TestFamilyEqual(t *testing.T) {
	a, _ := NewFamily(1, 8, 0)
	b, _ := NewFamily(1, 8, 0)
	c, _ := NewFamily(1, 8, 1)
	d, _ := NewFamily(1, 4, 0)
	switch {
	case !a.Equal(b):
		t.Error("two families drawn from one seed differ")
	case a.Equal(c), a.Equal(d):
		t.Error("families of another seed or width are equal")
	case !Identity(8).Equal(Identity(8)), Identity(8).Equal(a), Identity(8).Equal(Identity(4)):
		t.Error("the identity family compares wrongly")
	}
}

// TestIndexesMatchesHash is the equivalence test behind the
// //histburst:fastpath annotation on Indexes: the batched row-index fill
// must agree with the one-at-a-time Hash path for every row.
func TestIndexesMatchesHash(t *testing.T) {
	f, err := NewFamily(5, 1009, 77)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	dst := make([]int, f.Len())
	for trial := 0; trial < 2000; trial++ {
		x := rng.Uint64()
		f.Indexes(x, dst)
		for i := range dst {
			if want := f.Hash(i, x); dst[i] != want {
				t.Fatalf("Indexes(%#x)[%d] = %d, Hash = %d", x, i, dst[i], want)
			}
		}
	}
}
