package experiments

import (
	"fmt"
	"math/rand"

	"histburst/internal/cmpbe"
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
	// Both variants at a fixed moderate budget: η = 60 points per PBE-1
	// chunk, γ scaled from the paper's 40.
	gamma, _ := pbe2Gammas(cfg, 1)
	for _, ds := range datasets {
		oracle := oracleFor(ds.name+fmt.Sprint(cfg.Scale, cfg.Seed), ds.s)
		for _, w := range fig11Widths {
			for vi, name := range []string{"CM-PBE-1", "CM-PBE-2"} {
				var sk mixedSketch
				var err error
				if vi == 0 {
					sk, err = newCMPBE1(cmpbeDepth, w, cfg.Seed, pbe1Eta)
				} else {
					sk, err = cmpbe.New(cmpbeDepth, w, cfg.Seed, gamma)
				}
				if err != nil {
					return Table{}, err
				}
				for _, el := range ds.s {
					sk.Append(el.Event, el.Time)
				}
				sk.Finish()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w) + int64(vi)))
				stats := mixedPointErrors(sk.Burstiness, oracle, cfg.Queries, rng)
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
