package pbe

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestBurstyTimesPropertyRandomSteps verifies on random step estimators that
// BurstyTimes classifies every instant exactly as direct evaluation does.
func TestBurstyTimesPropertyRandomSteps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := &stepEstimator{}
		tm, fv := int64(0), int64(0)
		for i := 0; i < 1+r.Intn(20); i++ {
			tm += int64(1 + r.Intn(15))
			fv += int64(1 + r.Intn(20))
			e.steps = append(e.steps, struct {
				t int64
				f float64
			}{tm, float64(fv)})
		}
		horizon := tm + int64(r.Intn(30))
		tau := int64(1 + r.Intn(25))
		theta := float64(r.Intn(30) - 5)
		ranges := burstyTimes(e, theta, tau, horizon)
		for q := int64(0); q <= horizon; q++ {
			want := Burstiness(e, q, MustSpan(tau)) >= theta
			got := false
			for _, rg := range ranges {
				if rg.Contains(q) {
					got = true
					break
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
