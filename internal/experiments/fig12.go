package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"histburst/internal/dyadic"
	"histburst/internal/exact"
	"histburst/internal/metrics"
	"histburst/internal/pbe"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

func init() {
	register("fig12", "bursty event detection: space vs precision/recall (both datasets)", fig12)
}

// fig12 reproduces Figure 12: precision and recall of the dyadic-tree
// bursty event query against the exact oracle, across sketch widths (the
// space axis). Both rise with space and olympicrio beats uspolitics at
// equal budgets. Recall is additionally capped by the pruning bound's
// blindness to sibling cancellation (see the dyadic package tests), which
// is why neither dataset reaches 1 even with generous space.
//
// Every configuration is measured twice over one query set: with a summary
// at every height, which is Algorithm 3 as published, and with the levels
// the library keeps (dyadic.CMPBELevels), its PBE-2 steering levels under the
// production γ factor. The two end at the same leaf level; they differ in how
// many prune decisions lie on the way to it and in what each one costs.
func fig12(cfg Config) (Table, error) {
	t := Table{
		ID:     "fig12",
		Title:  "Bursty event detection: space vs precision/recall",
		Note:   "both rise with space; olympicrio beats uspolitics at equal budgets; keeping every fourth collision-free level costs a fraction of the space and recalls more",
		Header: []string{"dataset", "variant", "width", "index", "space", "precision", "recall", "point queries/query"},
	}
	datasets := []struct {
		name string
		k    uint64
		s    stream.Stream
	}{
		{"olympicrio", workload.OlympicRioK, olympicStream(cfg)},
		{"uspolitics", workload.USPoliticsK, politicsStream(cfg)},
	}
	leaf, steer := pbe2Gammas(cfg, dyadic.SteerGammaFactor)
	for _, ds := range datasets {
		oracle := oracleFor(ds.name+fmt.Sprint(cfg.Scale, cfg.Seed), ds.s)
		queries := eventQueries(oracle, max(cfg.Queries/2, 20), rand.New(rand.NewSource(cfg.Seed+33)))
		for _, w := range []int{136, 272, 544} {
			for _, cell := range []struct {
				name            string
				published, kept dyadic.LevelFactory
			}{
				{"CM-PBE-1", pbe1Levels(1, cmpbeDepth, w, cfg.Seed, pbe1Eta), pbe1Levels(dyadic.IndexSpacing, cmpbeDepth, w, cfg.Seed, pbe1Eta)},
				{"CM-PBE-2", dyadic.CMPBELevelsEvery(1, cmpbeDepth, w, cfg.Seed, leaf, leaf), dyadic.CMPBELevels(cmpbeDepth, w, cfg.Seed, leaf, steer)},
			} {
				for _, index := range []struct {
					name   string
					levels dyadic.LevelFactory
				}{
					{"Algorithm 3 (every level)", cell.published},
					{"kept levels", cell.kept},
				} {
					tree, err := dyadic.New(ds.k, index.levels)
					if err != nil {
						return Table{}, err
					}
					for _, el := range ds.s {
						tree.Append(el.Event, el.Time)
					}
					tree.Finish()
					agg, stats, _, err := askEvents(tree, queries)
					if err != nil {
						return Table{}, err
					}
					t.Rows = append(t.Rows, []string{
						ds.name, cell.name, fmt.Sprintf("%d", w), index.name,
						metrics.HumanBytes(tree.Bytes()),
						fmtF(agg.Precision()), fmtF(agg.Recall()),
						fmt.Sprintf("%d", stats.PointQueries/len(queries)),
					})
				}
			}
		}
	}
	return t, nil
}

// eventQuery is one BURSTY-EVENT query with the oracle's answer.
type eventQuery struct {
	t     int64
	theta float64
	want  []uint64
}

// eventQueries draws n BURSTY-EVENT queries (τ = one day) at uniform
// instants, with thresholds from the upper part of the observed burstiness
// range — prominent bursts, the paper's use case.
func eventQueries(oracle *exact.Store, n int, rng *rand.Rand) []eventQuery {
	return eventQueriesIn(oracle, n, 0.03, 0.20, rng)
}

// eventQueriesIn is eventQueries with the thresholds uniform in [lo, hi] of
// the observed burstiness range.
func eventQueriesIn(oracle *exact.Store, n int, lo, hi float64, rng *rand.Rand) []eventQuery {
	maxB := burstinessRange(oracle, workload.Day, rng)
	qs := make([]eventQuery, n)
	for i := range qs {
		t := rng.Int63n(oracle.MaxTime() + 1)
		theta := maxB * (lo + (hi-lo)*rng.Float64())
		qs[i] = eventQuery{t: t, theta: theta, want: oracle.BurstyEvents(t, int64(theta), workload.Day)}
	}
	return qs
}

// askEvents runs the queries against an index and scores the answers; it
// also returns the search's work counters and the time the searches took.
func askEvents(tree *dyadic.Tree, queries []eventQuery) (metrics.PrecisionRecall, dyadic.QueryStats, time.Duration, error) {
	var agg metrics.PrecisionRecall
	var stats dyadic.QueryStats
	var spent time.Duration
	for _, q := range queries {
		t0 := time.Now()
		got, err := tree.BurstyEventIDs(q.t, q.theta, pbe.MustSpan(workload.Day), &stats)
		spent += time.Since(t0)
		if err != nil {
			return agg, stats, spent, err
		}
		agg.Add(metrics.Compare(got, q.want))
	}
	return agg, stats, spent, nil
}
