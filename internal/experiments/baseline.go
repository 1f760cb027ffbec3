package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"histburst/internal/cmpbe"
	"histburst/internal/metrics"
	"histburst/internal/pbe"
	"histburst/internal/workload"
)

func init() {
	register("tbl-base", "baseline exact store vs CM-PBE sketches: space and query latency", baseline)
}

// baseline reproduces the setup comparison of Sections II-B and VI: the
// exact baseline stores the whole stream (≈1 GB for the paper's datasets;
// proportional here) while the sketches use kilobytes-to-megabytes, at a
// bounded accuracy cost and comparable O(log ·) query time.
func baseline(cfg Config) (Table, error) {
	data := olympicStream(cfg)
	oracle := oracleFor("olympicrio"+fmt.Sprint(cfg.Scale, cfg.Seed), data)

	w := paperWidth / 2
	sk2, err := cmpbe.New(cmpbeDepth, w, cfg.Seed, math.Max(6, 60*cfg.Scale))
	if err != nil {
		return Table{}, err
	}
	sk1, err := newCMPBE1(cmpbeDepth, w, cfg.Seed, pbe1Eta)
	if err != nil {
		return Table{}, err
	}
	for _, el := range data {
		sk1.Append(el.Event, el.Time)
		sk2.Append(el.Event, el.Time)
	}
	sk1.Finish()
	sk2.Finish()

	rng := rand.New(rand.NewSource(cfg.Seed + 44))
	events := oracle.Events()
	horizon := oracle.MaxTime()
	tau := workload.Day
	q := cfg.Queries * 10 // point queries are cheap; use many for stable latency

	type target struct {
		name  string
		bytes int
		query func(e uint64, t int64) float64
		err   *metrics.ErrorStats
	}
	sp := pbe.MustSpan(tau)
	exactQ := func(e uint64, t int64) float64 { return float64(oracle.Burstiness(e, t, tau)) }
	targets := []target{
		{name: "exact baseline", bytes: oracle.Bytes(), query: exactQ},
		{name: "CM-PBE-1", bytes: sk1.Bytes(), query: func(e uint64, t int64) float64 { return sk1.Burstiness(e, t, sp) }},
		{name: "CM-PBE-2", bytes: sk2.Bytes(), query: func(e uint64, t int64) float64 { return sk2.Burstiness(e, t, sp) }},
	}

	t := Table{
		ID:     "tbl-base",
		Title:  fmt.Sprintf("baseline vs sketches (olympicrio, N=%d, K=%d)", oracle.Len(), len(events)),
		Note:   "the baseline is exact but costs O(n) space that grows with the stream forever; sketch space is governed by parameters (the gap widens with scale — per-cell floors dominate at toy volumes)",
		Header: []string{"method", "space", "point query latency", "mean |b̃−b|"},
	}
	for _, tg := range targets {
		// Latency.
		es := make([]uint64, q)
		qs := make([]int64, q)
		for i := range es {
			es[i] = events[rng.Intn(len(events))]
			qs[i] = rng.Int63n(horizon + 1)
		}
		sw := metrics.NewStopwatch()
		var sink float64
		for i := 0; i < q; i++ {
			sink += tg.query(es[i], qs[i])
		}
		lat := sw.Elapsed() / time.Duration(max64(1, int64(q)))
		_ = sink
		// Error.
		errs := make([]float64, cfg.Queries)
		for i := range errs {
			e := events[rng.Intn(len(events))]
			qt := rng.Int63n(horizon + 1)
			errs[i] = tg.query(e, qt) - exactQ(e, qt)
		}
		stats := metrics.SummarizeErrors(errs)
		t.Rows = append(t.Rows, []string{
			tg.name,
			metrics.HumanBytes(tg.bytes),
			lat.String(),
			fmtF(stats.Mean),
		})
	}
	return t, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
