package histburst_test

import (
	"math"
	"testing"

	"histburst"
	"histburst/internal/pbe"
	"histburst/internal/segstore"
)

// errOf keeps a query's error.
func errOf[T any](_ T, err error) error { return err }

// TestQueryValidation: every query entry refuses a bad τ, θ or k with one
// exact message, prefixed once by the package the caller entered — the
// detector and the single-event summary by histburst, a store snapshot by
// segstore.
func TestQueryValidation(t *testing.T) {
	det, err := histburst.New(16)
	if err != nil {
		t.Fatal(err)
	}
	single, err := histburst.NewSingle()
	if err != nil {
		t.Fatal(err)
	}
	store, err := segstore.Open("", segstore.Config{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	})
	type querier interface {
		Burstiness(e uint64, t, tau int64) (float64, error)
		BurstyTimes(e uint64, theta float64, tau int64) ([]histburst.TimeRange, error)
		BurstyEvents(t int64, theta float64, tau int64) ([]uint64, error)
		TopBursty(t int64, k int, tau int64) ([]histburst.EventBurstiness, error)
	}
	nan := math.NaN()
	type refusal struct {
		call string
		err  error
		want string
	}
	check := func(name, prefix string, cases []refusal) {
		for _, tc := range cases {
			if tc.err == nil || tc.err.Error() != prefix+tc.want {
				t.Errorf("%s.%s = %v, want %q", name, tc.call, tc.err, prefix+tc.want)
			}
		}
	}
	for _, q := range []struct {
		name, prefix string
		q            querier
	}{
		{"Detector", "histburst: ", det},
		{"Snapshot", "segstore: ", store.Snapshot()},
	} {
		check(q.name, q.prefix, []refusal{
			{"Burstiness(τ=0)", errOf(q.q.Burstiness(1, 10, 0)), "burst span must be positive, got 0"},
			{"BurstyTimes(τ=-1)", errOf(q.q.BurstyTimes(1, 5, -1)), "burst span must be positive, got -1"},
			{"BurstyTimes(θ=NaN)", errOf(q.q.BurstyTimes(1, nan, 5)), "threshold must be a number, got NaN"},
			{"BurstyEvents(θ=0)", errOf(q.q.BurstyEvents(10, 0, 5)), "threshold must be positive, got 0"},
			{"BurstyEvents(θ=NaN)", errOf(q.q.BurstyEvents(10, nan, 5)), "threshold must be positive, got NaN"},
			{"BurstyEvents(τ=0)", errOf(q.q.BurstyEvents(10, 5, 0)), "burst span must be positive, got 0"},
			{"TopBursty(τ=0)", errOf(q.q.TopBursty(10, 3, 0)), "burst span must be positive, got 0"},
			{"TopBursty(k=0)", errOf(q.q.TopBursty(10, 0, 5)), "k must be positive, got 0"},
		})
	}
	sp, sn := pbe.MustSpan(5), store.Snapshot()
	check("Detector", "histburst: ", []refusal{
		{"BurstyTimesOver(θ=NaN)", errOf(det.BurstyTimesOver(1, nan, sp)), "threshold must be a number, got NaN"},
		{"BurstyEventsOver(θ=0)", errOf(det.BurstyEventsOver(10, 0, sp)), "threshold must be positive, got 0"},
		{"TopBurstyOver(k=0)", errOf(det.TopBurstyOver(10, 0, sp)), "k must be positive, got 0"},
	})
	check("Snapshot", "segstore: ", []refusal{
		{"BurstyTimesOver(θ=NaN)", errOf(sn.BurstyTimesOver(1, nan, sp)), "threshold must be a number, got NaN"},
		{"BurstyEventsOver(θ=0)", errOf(sn.BurstyEventsOver(10, 0, sp)), "threshold must be positive, got 0"},
		{"TopBurstyOver(k=0)", errOf(sn.TopBurstyOver(10, 0, sp)), "k must be positive, got 0"},
	})
	check("Single", "histburst: ", []refusal{
		{"Burstiness(τ=0)", errOf(single.Burstiness(10, 0)), "burst span must be positive, got 0"},
		{"BurstyTimes(τ=-1)", errOf(single.BurstyTimes(5, -1, 100)), "burst span must be positive, got -1"},
		{"BurstyTimes(θ=NaN)", errOf(single.BurstyTimes(nan, 5, 100)), "threshold must be a number, got NaN"},
	})
}
