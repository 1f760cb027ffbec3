package histburst_test

import (
	"math"
	"reflect"
	"testing"

	"histburst"
	"histburst/internal/segstore"
)

// TestHugeTauMatchesLargeTau pins the saturation of t−τ and t−2τ: a τ so
// large that t−2τ wraps around int64 must answer as any τ that reaches
// behind the first arrival does — POINT and BURSTY TIME alike, for a
// detector, a single-event summary and a one-segment store.
func TestHugeTauMatchesLargeTau(t *testing.T) {
	det, err := histburst.New(8, histburst.WithPBE2(1))
	if err != nil {
		t.Fatal(err)
	}
	single, err := histburst.NewSingle(histburst.WithPBE2(1))
	if err != nil {
		t.Fatal(err)
	}
	store, err := segstore.Open("", segstore.Config{K: 8, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	})
	for ts := int64(1000); ts < 1050; ts++ {
		det.Append(1, ts)
		single.Append(ts)
		if err := store.Append(1, ts); err != nil {
			t.Fatal(err)
		}
	}
	det.Finish()
	single.Finish()
	if err := store.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if n := len(store.Segments()); n != 1 {
		t.Fatalf("store holds %d segments, want 1", n)
	}

	type answers struct {
		point float64
		times []histburst.TimeRange
	}
	for _, tc := range []struct {
		name string
		ask  func(tau int64) (answers, error)
	}{
		{"detector", func(tau int64) (a answers, err error) {
			if a.point, err = det.Burstiness(1, 2000, tau); err != nil {
				return a, err
			}
			a.times, err = det.BurstyTimes(1, 40, tau)
			return a, err
		}},
		{"single", func(tau int64) (a answers, err error) {
			if a.point, err = single.Burstiness(2000, tau); err != nil {
				return a, err
			}
			a.times, err = single.BurstyTimes(40, tau, 1049)
			return a, err
		}},
		{"store", func(tau int64) (a answers, err error) {
			if a.point, err = store.Snapshot().Burstiness(1, 2000, tau); err != nil {
				return a, err
			}
			a.times, err = store.Snapshot().BurstyTimes(1, 40, tau)
			return a, err
		}},
	} {
		want, err := tc.ask(1 << 40)
		if err != nil {
			t.Fatal(err)
		}
		if want.point != 50 || !reflect.DeepEqual(want.times, []histburst.TimeRange{{Start: 1040, End: 1050}}) {
			t.Fatalf("%s at τ = 2⁴⁰: POINT %v, TIME %v; want 50 and [{1040 1050}]", tc.name, want.point, want.times)
		}
		for _, tau := range []int64{3 << 61, math.MaxInt64} {
			got, err := tc.ask(tau)
			if err != nil {
				t.Fatal(err)
			}
			if got.point != want.point || !reflect.DeepEqual(got.times, want.times) {
				t.Errorf("%s at τ = %d: POINT %v, TIME %v; at τ = 2⁴⁰ POINT %v, TIME %v",
					tc.name, tau, got.point, got.times, want.point, want.times)
			}
		}
	}
}
