// Package hash provides the seeded hash-function family used by every
// sketch in histburst.
//
// Count-Min style sketches need d independent hash functions
// h_i : uint64 → [w] drawn from a pairwise-independent family. We use the
// classic polynomial construction over the Mersenne prime p = 2^61 − 1:
// h(x) = ((a·x + b) mod p) mod w with a ∈ [1, p), b ∈ [0, p) drawn from a
// seeded PRNG, which is pairwise independent and cheap to evaluate with
// 128-bit multiplication (math/bits). Identity is the unseeded member a = 1,
// b = 0: a one-row sketch under it is a collision-free level with a cell per
// id.
package hash

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// mersenne61 is the prime 2^61 − 1 used as the hash field modulus.
const mersenne61 = (1 << 61) - 1

// Func is one member of the family: a pairwise-independent map from uint64
// keys to buckets [0, w).
type Func struct {
	a, b uint64
	w    uint64
	// mHi:mLo is ⌊2^128/w⌋ + 1, the reciprocal that turns the final `mod w`
	// into three multiplies instead of a hardware divide (Lemire & Kaser,
	// "Faster remainders when the divisor is a constant"). Point queries pay
	// this mod d times each.
	mHi, mLo uint64
	// Every key below fixed hashes to itself: w for the identity member
	// (a = 1, b = 0), whose keys — a level's ids — Apply returns without the
	// field arithmetic, and 0 for a seeded one.
	fixed uint64
}

// Family is a set of d independent hash functions sharing a bucket count.
type Family struct {
	fns []Func
}

// NewFamily creates d hash functions onto [0, w), deterministically derived
// from seed. d and w must be positive.
func NewFamily(d, w int, seed int64) (Family, error) {
	if d <= 0 {
		return Family{}, fmt.Errorf("hash: d must be positive, got %d", d)
	}
	if w <= 0 {
		return Family{}, fmt.Errorf("hash: w must be positive, got %d", w)
	}
	rng := rand.New(rand.NewSource(seed))
	fns := make([]Func, d)
	for i := range fns {
		// a in [1, p), b in [0, p).
		a := uint64(rng.Int63n(mersenne61-1)) + 1
		b := uint64(rng.Int63n(mersenne61))
		fns[i] = newFunc(a, b, uint64(w))
	}
	return Family{fns: fns}, nil
}

// Identity returns the one-function family onto [0, w) whose member has
// a = 1 and b = 0: h(x) = x mod w for every x < 2^61 − 1. Over ids below w it
// never collides, so a one-row sketch hashed by it holds a cell per id. w must
// be positive.
func Identity(w int) Family {
	return Family{fns: []Func{newFunc(1, 0, uint64(w))}}
}

// newFunc returns h(x) = ((a·x + b) mod p) mod w.
func newFunc(a, b, w uint64) Func {
	mHi, mLo := modReciprocal(w)
	h := Func{a: a, b: b, w: w, mHi: mHi, mLo: mLo}
	if a == 1 && b == 0 {
		h.fixed = min(w, mersenne61) // x < min(w, p): (x·1 + 0) mod p mod w = x
	}
	return h
}

// Equal reports whether f and g map every key to the same buckets: the same
// functions, in the same order, onto the same width.
func (f Family) Equal(g Family) bool { return slices.Equal(f.fns, g.fns) }

// Len returns the number of functions d.
func (f Family) Len() int { return len(f.fns) }

// Width returns the bucket count w.
func (f Family) Width() int {
	if len(f.fns) == 0 {
		return 0
	}
	return int(f.fns[0].w)
}

// Hash applies the i-th function to x.
func (f Family) Hash(i int, x uint64) int {
	return f.fns[i].Apply(x)
}

// Indexes fills dst[i] with the i-th function applied to x, for all d
// functions in one call: x is folded into the field once and the per-call
// overhead of d separate Apply calls disappears. dst must have length ≥ d.
//
//histburst:noalloc
//histburst:fastpath Hash
func (f Family) Indexes(x uint64, dst []int) {
	xm := modMersenne(x)
	for i := range f.fns {
		h := &f.fns[i]
		v := mulModMersenne(h.a, xm) + h.b
		if v >= mersenne61 {
			v -= mersenne61
		}
		dst[i] = int(fastMod(v, h.w, h.mHi, h.mLo))
	}
}

// Apply evaluates the hash function at x.
//
//histburst:noalloc
func (h *Func) Apply(x uint64) int {
	if x < h.fixed {
		return int(x)
	}
	// Fold x into the field first so the polynomial sees a value < p.
	v := mulModMersenne(h.a, modMersenne(x)) + h.b
	if v >= mersenne61 {
		v -= mersenne61
	}
	return int(fastMod(v, h.w, h.mHi, h.mLo))
}

// modReciprocal returns ⌊2^128/w⌋ + 1 for w ≥ 2. With 128 reciprocal bits
// the fast mod below is exact for every 64-bit operand and any such w.
func modReciprocal(w uint64) (hi, lo uint64) {
	if w <= 1 {
		return 0, 0 // the zero reciprocal makes fastMod yield v mod 1 = 0
	}
	q1, r1 := bits.Div64(1, 0, w) // ⌊2^64/w⌋ and 2^64 mod w
	q2, _ := bits.Div64(r1, 0, w) // ⌊r1·2^64/w⌋
	var c uint64
	lo, c = bits.Add64(q2, 1, 0)
	hi = q1 + c
	return hi, lo
}

// fastMod returns v mod w given m = mHi:mLo = ⌊2^128/w⌋ + 1: the low 128
// bits of v·m are the fractional part of v/w scaled by 2^128, so multiplying
// them back by w and keeping the top word recovers the remainder.
//
//histburst:noalloc
func fastMod(v, w, mHi, mLo uint64) uint64 {
	hi1, lo1 := bits.Mul64(v, mLo)
	fracHi := v*mHi + hi1 // low 128 bits of v·m are fracHi:lo1
	t1hi, t1lo := bits.Mul64(fracHi, w)
	t2hi, _ := bits.Mul64(lo1, w)
	_, carry := bits.Add64(t1lo, t2hi, 0)
	return t1hi + carry
}

// modMersenne reduces x modulo 2^61 − 1 using the Mersenne identity
// x mod (2^k − 1) = (x >> k) + (x & (2^k − 1)), iterated.
//
//histburst:noalloc
func modMersenne(x uint64) uint64 {
	x = (x >> 61) + (x & mersenne61)
	if x >= mersenne61 {
		x -= mersenne61
	}
	return x
}

// mulModMersenne returns (a*b) mod (2^61 − 1) via 128-bit multiplication.
//
//histburst:noalloc
func mulModMersenne(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a,b < 2^61 so hi < 2^58. The product is hi·2^64 + lo.
	// 2^64 ≡ 2^3 (mod 2^61 − 1), so product ≡ hi·8 + lo.
	r := (hi << 3) | (lo >> 61)
	r = modMersenne(r + (lo & mersenne61))
	return r
}
