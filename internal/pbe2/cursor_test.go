package pbe2

import (
	"math/rand"
	"testing"
)

// buildRandom returns a builder fed a random bursty arrival sequence,
// optionally finished, plus the horizon of the stream.
func buildRandom(t *testing.T, seed int64, n int, finish bool) (*Builder, int64) {
	t.Helper()
	b, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	tm := int64(0)
	for i := 0; i < n; i++ {
		tm += int64(r.Intn(5))
		reps := 1
		if r.Intn(10) == 0 {
			reps = 1 + r.Intn(12)
		}
		for j := 0; j < reps; j++ {
			b.Append(tm)
		}
	}
	if finish {
		b.Finish()
	}
	return b, tm
}

// TestEstimate3MatchesEstimate is the core equivalence proof for the
// narrowed three-instant query: over open, finished, merged and
// round-tripped builders, Estimate3 must reproduce three Estimate calls
// bit for bit, including instants off both ends of the stream.
func TestEstimate3MatchesEstimate(t *testing.T) {
	builders := map[string]func() (*Builder, int64){
		"open":     func() (*Builder, int64) { return buildRandom(t, 21, 3000, false) },
		"finished": func() (*Builder, int64) { return buildRandom(t, 22, 3000, true) },
		"tiny":     func() (*Builder, int64) { return buildRandom(t, 23, 5, false) },
		"empty": func() (*Builder, int64) {
			b, err := New(4)
			if err != nil {
				t.Fatal(err)
			}
			return b, 100
		},
		"merged": func() (*Builder, int64) {
			a, horizon := buildRandom(t, 24, 2000, true)
			c, err := New(4)
			if err != nil {
				t.Fatal(err)
			}
			tm := horizon + 1
			r := rand.New(rand.NewSource(25))
			for i := 0; i < 2000; i++ {
				tm += int64(r.Intn(4))
				c.Append(tm)
			}
			m, err := mergeTwo(a, c)
			if err != nil {
				t.Fatal(err)
			}
			return m, tm
		},
		"roundtrip": func() (*Builder, int64) {
			a, horizon := buildRandom(t, 26, 3000, true)
			b, _ := oneCell(t, []Builder{*a})
			return b, horizon
		},
	}
	for name, mk := range builders {
		b, horizon := mk()
		r := rand.New(rand.NewSource(27))
		for trial := 0; trial < 5000; trial++ {
			// Three ascending instants, spanning before-stream and beyond-frontier.
			t2 := int64(r.Intn(int(horizon)+400)) - 200
			tau := int64(r.Intn(int(horizon)/2 + 2))
			t1, t0 := t2-tau, t2-2*tau
			f0, f1, f2 := b.Estimate3(t0, t1, t2)
			w0, w1, w2 := b.Estimate(t0), b.Estimate(t1), b.Estimate(t2)
			if f0 != w0 || f1 != w1 || f2 != w2 {
				t.Fatalf("%s: Estimate3(%d, %d, %d) = (%v, %v, %v), Estimate says (%v, %v, %v)",
					name, t0, t1, t2, f0, f1, f2, w0, w1, w2)
			}
		}
	}
}

// TestSearchFullMatchesLinear pins the interpolated/galloping search against
// a linear reference over every segment boundary.
func TestSearchFullMatchesLinear(t *testing.T) {
	b, horizon := buildRandom(t, 41, 4000, true)
	if b.NumSegments() < 16 {
		t.Fatalf("want a summary long enough for the interpolation path, got %d segments", b.NumSegments())
	}
	ref := func(tm int64) int {
		for i := b.NumSegments() - 1; i >= 0; i-- {
			if b.start(i) <= tm {
				return i
			}
		}
		return -1
	}
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20000; trial++ {
		tm := int64(r.Intn(int(horizon)+200)) - 100
		if got, want := b.searchFull(tm), ref(tm); got != want {
			t.Fatalf("searchFull(%d) = %d, want %d", tm, got, want)
		}
	}
	// Exact boundaries and their neighbors.
	for i := range b.n {
		s := b.start(i)
		for _, tm := range []int64{s - 1, s, s + 1} {
			if got, want := b.searchFull(tm), ref(tm); got != want {
				t.Fatalf("searchFull(%d) = %d, want %d", tm, got, want)
			}
		}
	}
}
