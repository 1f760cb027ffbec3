package experiments

import (
	"fmt"

	"histburst/internal/kleinberg"
	"histburst/internal/pbe"
	"histburst/internal/pbe2"
	"histburst/internal/workload"
)

func init() {
	register("abl-klein", "related work: Kleinberg's rate-based bursts vs the paper's acceleration-based burstiness", ablationKleinberg)
}

// ablationKleinberg contrasts the related-work baseline (Section VII):
// Kleinberg's two-state automaton flags periods of elevated *rate*, while
// the paper's burstiness flags *acceleration*. On the soccer stream both
// catch the match bursts, but Kleinberg keeps flagging through each burst's
// sustained peak while the acceleration signal fires on the ramps — and the
// PBE answers come from kilobytes instead of the raw stream.
func ablationKleinberg(cfg Config) (Table, error) {
	ts := soccerStream(cfg)
	horizon := ts[len(ts)-1]
	exactCurve := curveOf(ts)

	// Kleinberg on the raw stream.
	kivs, err := kleinberg.Detect(ts, kleinberg.DefaultOptions())
	if err != nil {
		return Table{}, err
	}

	// The paper's bursty-time query over a PBE-2 summary.
	b, err := pbe2.New(scaleGamma(40, cfg))
	if err != nil {
		return Table{}, err
	}
	buildPBE(b, ts)
	tau := workload.Day / 4 // six-hour span resolves the evening bursts
	// Threshold: a fifth of the largest observed burstiness.
	maxB := 0.0
	for q := int64(0); q <= horizon; q += 3600 {
		if v := float64(exactCurve.Burstiness(q, tau)); v > maxB {
			maxB = v
		}
	}
	theta := maxB / 5
	sp := pbe.MustSpan(tau)
	burst := func(t int64) float64 { return pbe.Burstiness(b, t, sp) }
	ranges := pbe.BurstyTimes(b.Breakpoints(), burst, theta, sp, horizon)
	aivs := make([]kleinberg.Interval, len(ranges))
	for i, r := range ranges {
		aivs[i] = kleinberg.Interval{Start: r.Start, End: r.End - 1}
	}

	// Score both against the planted match windows (the generator's ground
	// truth): each match is an 11-hour window starting at 18:00 of its day.
	matchDays := []int64{3, 6, 9, 12, 15, 17, 19, 20}
	t := Table{
		ID:     "abl-klein",
		Title:  "Kleinberg automaton (raw stream) vs burstiness query (PBE-2 summary), soccer",
		Note:   "both flag the matches; Kleinberg covers whole elevated-rate windows, burstiness only the accelerating ramps",
		Header: []string{"match day", "kleinberg hit", "kleinberg cover", "burstiness hit", "burstiness cover"},
	}
	for _, day := range matchDays {
		lo := day*workload.Day + 18*3600
		hi := lo + 12*3600
		kc := kleinberg.Coverage(kivs, lo, hi)
		ac := kleinberg.Coverage(aivs, lo, hi)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", day),
			fmt.Sprintf("%v", kc > 0), fmt.Sprintf("%d%%", 100*kc/(hi-lo+1)),
			fmt.Sprintf("%v", ac > 0), fmt.Sprintf("%d%%", 100*ac/(hi-lo+1)),
		})
	}
	// Summary row: flagged time outside any match window (Kleinberg's
	// rate-plateau coverage vs burstiness's ramp-only coverage).
	var kOut, aOut int64
	total := horizon + 1
	var inWindows int64
	kAll := kleinberg.Coverage(kivs, 0, horizon)
	aAll := kleinberg.Coverage(aivs, 0, horizon)
	for _, day := range matchDays {
		lo := day*workload.Day + 18*3600
		hi := lo + 12*3600
		inWindows += hi - lo + 1
		kOut += kleinberg.Coverage(kivs, lo, hi)
		aOut += kleinberg.Coverage(aivs, lo, hi)
	}
	kOut = kAll - kOut
	aOut = aAll - aOut
	t.Rows = append(t.Rows, []string{
		"off-window",
		"-", fmt.Sprintf("%.2f%%", 100*float64(kOut)/float64(total-inWindows)),
		"-", fmt.Sprintf("%.2f%%", 100*float64(aOut)/float64(total-inWindows)),
	})
	return t, nil
}
