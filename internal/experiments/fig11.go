package experiments

import (
	"fmt"
	"math/rand"

	"histburst/internal/cmpbe"
	"histburst/internal/exact"
	"histburst/internal/metrics"
	"histburst/internal/stream"
)

func init() {
	register("fig11", "CM-PBE space vs accuracy on mixed streams (both datasets)", fig11)
}

// cmpbeDepth is d = ⌈ln(1/δ)⌉ for the paper's δ = 0.02.
const cmpbeDepth = 4

// paperWidth is w = ⌈e/ε⌉ for the paper's ε = 0.005. Collision rates depend
// on K/w, not the stream volume, so the width is never scaled down with the
// workload.
const paperWidth = 544

// fig11Widths is the space sweep: growing the sketch width shrinks the
// collision term the way the paper's growing space budget does.
var fig11Widths = []int{68, 136, 272, 544}

// cellFactories returns the per-variant cell factory at a fixed moderate
// budget: η=60 points per PBE-1 chunk, γ scaled from the paper's 40.
func cellFactories(cfg Config) (f1, f2 cmpbe.Factory, err error) {
	f1, err = cmpbe.PBE1Factory(pbe1BufferN, 60)
	if err != nil {
		return nil, nil, err
	}
	f2, _, err = pbe2Factories(cfg, 1)
	if err != nil {
		return nil, nil, err
	}
	return f1, f2, nil
}

// fig11 reproduces Figure 11: on full mixed streams, CM-PBE-1 and CM-PBE-2
// trade space for burstiness accuracy; olympicrio behaves better than
// uspolitics at small budgets because uspolitics' Zipf popularity lets
// collisions bury unpopular events until the sketch is wide enough.
func fig11(cfg Config) (Table, error) {
	t := Table{
		ID:     "fig11",
		Title:  fmt.Sprintf("CM-PBE: space vs accuracy (d=%d, δ=0.02; mean |b̃−b| over uniform random point queries)", cmpbeDepth),
		Note:   "error falls as the sketch widens for both variants and datasets; the skewed uspolitics needs more width to protect unpopular events",
		Header: []string{"dataset", "variant", "width", "space", "mean err", "p95 err"},
	}
	datasets := []struct {
		name string
		s    stream.Stream
	}{
		{"olympicrio", olympicStream(cfg)},
		{"uspolitics", politicsStream(cfg)},
	}
	f1, f2, err := cellFactories(cfg)
	if err != nil {
		return Table{}, err
	}
	for _, ds := range datasets {
		oracle := oracleFor(ds.name+fmt.Sprint(cfg.Scale, cfg.Seed), ds.s)
		for _, w := range fig11Widths {
			for vi, factory := range []cmpbe.Factory{f1, f2} {
				name := "CM-PBE-1"
				if vi == 1 {
					name = "CM-PBE-2"
				}
				sk, err := cmpbe.New(cmpbeDepth, w, cfg.Seed, factory)
				if err != nil {
					return Table{}, err
				}
				for _, el := range ds.s {
					sk.Append(el.Event, el.Time)
				}
				sk.Finish()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w) + int64(vi)))
				stats := mixedErrPerSketch(sk, oracle, cfg.Queries, rng)
				t.Rows = append(t.Rows, []string{
					ds.name, name, fmt.Sprintf("%d", w),
					metrics.HumanBytes(sk.Bytes()),
					fmtF(stats.Mean), fmtF(stats.P95),
				})
			}
		}
	}
	return t, nil
}

func mixedErrPerSketch(sk *cmpbe.Sketch, oracle *exact.Store, q int, rng *rand.Rand) metrics.ErrorStats {
	return mixedPointErrors(func(e uint64, t, tau int64) float64 {
		return sk.Burstiness(e, t, tau)
	}, oracle, q, rng)
}
