package pbe1

import (
	"math/rand"
	"testing"
)

func buildRandom1(t *testing.T, seed int64, n int, finish bool) (*Builder, int64) {
	t.Helper()
	b, err := New(128, 24)
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

// TestEstimate3MatchesEstimate proves the narrowed two-region search returns
// exactly what three independent Estimate calls return, across the buffered
// tail, the compressed summary, and the seam between them.
func TestEstimate3MatchesEstimate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		finish bool
	}{
		{"buffered-only", 60, false}, // everything still in buf
		{"compressed", 3000, true},   // summary only
		{"split", 3000, false},       // summary + live buffered tail
		{"empty", 0, false},
	} {
		b, horizon := buildRandom1(t, 51, tc.n, tc.finish)
		if horizon == 0 {
			horizon = 100
		}
		r := rand.New(rand.NewSource(52))
		for trial := 0; trial < 5000; trial++ {
			t2 := int64(r.Intn(int(horizon)+400)) - 200
			tau := int64(r.Intn(int(horizon)/2 + 2))
			t1, t0 := t2-tau, t2-2*tau
			f0, f1, f2 := b.Estimate3(t0, t1, t2)
			w0, w1, w2 := b.Estimate(t0), b.Estimate(t1), b.Estimate(t2)
			if f0 != w0 || f1 != w1 || f2 != w2 {
				t.Fatalf("%s: Estimate3(%d, %d, %d) = (%v, %v, %v), Estimate says (%v, %v, %v)",
					tc.name, t0, t1, t2, f0, f1, f2, w0, w1, w2)
			}
		}
	}
}
