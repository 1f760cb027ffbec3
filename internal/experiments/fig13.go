package experiments

import (
	"fmt"

	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
	"histburst/internal/pbe"
	"histburst/internal/workload"
)

func init() {
	register("fig13", "uspolitics burst timeline by category (Democrat vs Republican)", fig13)
}

// fig13 reproduces Figure 13: the timeline of detected bursty events in the
// uspolitics stream, grouped into the two party categories, with the
// magnitude of their burstiness per week — the view the paper demos at
// estorm.org.
func fig13(cfg Config) (Table, error) {
	data := politicsStream(cfg)
	leaf, steer := pbe2Gammas(cfg, dyadic.SteerGammaFactor)
	tree, err := dyadic.New(workload.USPoliticsK, dyadic.CMPBELevels(cmpbeDepth, paperWidth, cfg.Seed, leaf, steer))
	if err != nil {
		return Table{}, err
	}
	for _, el := range data {
		tree.Append(el.Event, el.Time)
	}
	tree.Finish()

	horizon := tree.Level(0).(*cmpbe.Sketch).MaxTime()
	tau := workload.Day
	// Threshold: a fixed fraction of the observed burstiness range so the
	// timeline keeps only prominent bursts.
	oracle := oracleFor("uspolitics"+fmt.Sprint(cfg.Scale, cfg.Seed), data)
	maxB := 0.0
	for _, e := range oracle.Events()[:min(len(oracle.Events()), 50)] {
		for day := int64(1); day*workload.Day <= horizon; day += 7 {
			if b := float64(oracle.Burstiness(e, day*workload.Day, tau)); b > maxB {
				maxB = b
			}
		}
	}
	theta := maxB * 0.15
	if theta < 1 {
		theta = 1
	}

	t := Table{
		ID:     "fig13",
		Title:  fmt.Sprintf("uspolitics burst timeline (τ = 1 day, θ = %s)", fmtF(theta)),
		Note:   "per week: how many events of each category burst and their total burstiness magnitude",
		Header: []string{"week", "dem events", "dem burst mass", "rep events", "rep burst mass"},
	}
	weeks := horizon/(7*workload.Day) + 1
	sp := pbe.MustSpan(tau)
	for wk := int64(0); wk < weeks; wk++ {
		demCount, repCount := 0, 0
		demMass, repMass := 0.0, 0.0
		// Probe each day of the week at noon.
		for day := int64(0); day < 7; day++ {
			qt := wk*7*workload.Day + day*workload.Day + workload.Day/2
			if qt > horizon {
				break
			}
			hits, err := tree.BurstyEvents(qt, theta, sp, nil)
			if err != nil {
				return Table{}, err
			}
			for _, h := range hits {
				if workload.USPoliticsCategory(h.Event) == "Democrat" {
					demCount++
					demMass += h.Burstiness
				} else {
					repCount++
					repMass += h.Burstiness
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", wk+1),
			fmt.Sprintf("%d", demCount), fmtF(demMass),
			fmt.Sprintf("%d", repCount), fmtF(repMass),
		})
	}
	return t, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
