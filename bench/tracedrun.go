package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runTraced is the separate traced run. It measures the workload once more,
// shorter, to read the server's counters and the tails the end-to-end
// metrics leave out; replays the workload's operations with spans around
// every layer boundary the benchmark can reach; times each layer's public
// functions alone; and reports all of it as the per-layer metrics.
func runTraced(w workloadDef, opt options) (report, error) {
	e, err := setUp(w, opt)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	defer e.tearDown()
	out := make(map[string]float64, len(perLayer))

	before, err := e.totals()
	if err != nil {
		return report{}, e.explain(err)
	}
	gen0 := before.generation
	res, err := e.runWindow(opt.window / 2)
	if err != nil {
		return report{}, err
	}
	acc, err := e.measureAccuracy()
	if err != nil {
		return report{}, e.explain(fmt.Errorf("accuracy pass: %w", err))
	}
	for name, v := range e.endToEnd(res, nil, acc) {
		out["run."+name] = v // only the demoted ones are declared and printed
	}
	var v verdict
	if err := e.verify(res, &v); err != nil {
		return report{}, fmt.Errorf("verify: %w", err)
	}
	if err := e.layerCounts(res, gen0, out); err != nil {
		return report{}, e.explain(err)
	}
	for _, ph := range w.after {
		// The store is at rest here: layerCounts waited for it.
		rec, _ := e.run.runPhase(ph.flows, time.Duration(ph.share*float64(opt.window)))
		if rec.failed > 0 {
			return report{}, e.explain(fmt.Errorf("reads after ingest: %d of %d ops failed, first: %w", rec.failed, rec.attempted, rec.firstErr))
		}
		out["segstore.decayed_point_us"] = steadyPercentile(rec.lat[opPoint], 50)
		out["segstore.decayed_times_us"] = steadyPercentile(rec.lat[opTimes], 50)
		out["segstore.decayed_events_us"] = steadyPercentile(rec.lat[opEvents], 50)
	}
	if e.srv != nil {
		if err := e.saturation(opt.window/10, out); err != nil {
			return report{}, e.explain(err)
		}
	}
	if err := tracedReplay(e, opt.window*3/10, out); err != nil {
		return report{}, e.explain(fmt.Errorf("traced replay: %w", err))
	}
	baseDir := e.baseDir
	if baseDir == "" { // the library workload has no store; the probes need one
		baseDir = filepath.Join(e.dir, "base")
		if err := buildBaseStore(baseDir, e.data, opt.sz); err != nil {
			return report{}, err
		}
	}
	if err := probeLayers(e.data, baseDir, e.dir, out); err != nil {
		return report{}, fmt.Errorf("layer probes: %w", err)
	}
	if e.srv != nil {
		if err := e.verifyDurable(&v); err != nil {
			return report{}, fmt.Errorf("verify: %w", err)
		}
	}

	rep := newReport(w, res.rec, &v)
	for _, def := range perLayer {
		rep.Metrics[def.name] = metricValue{Value: out[def.name], Unit: def.unit}
	}
	return rep, nil
}

// saturation runs the closed-loop saturate phases for d each and reports the
// rates the server sustained.
func (e *env) saturation(d time.Duration, out map[string]float64) error {
	layer := "wire"
	if e.w.surface == "http" {
		layer = "burstd"
	}
	for _, ph := range saturate {
		rec, took := e.run.runPhase(ph.flows, d)
		if rec.failed > 0 {
			return fmt.Errorf("saturation: %d of %d ops failed, first: %w", rec.failed, rec.attempted, rec.firstErr)
		}
		if rec.answered > 0 {
			out[layer+".point_sat_qps"] = float64(rec.answered) / took.Seconds()
		}
		if n := rec.acked[opBulk]; n > 0 {
			out[layer+".ingest_sat_elems_per_s"] = float64(n) / took.Seconds()
		}
	}
	return nil
}

// quiesce waits until the store's generation has stopped moving — seals,
// compactions and decays have caught up — or three seconds have passed, and
// returns the generation it settled on.
func (e *env) quiesce() (uint64, error) {
	t, err := dialWire(e.srv.wireAddr)
	if err != nil {
		return 0, err
	}
	defer t.close()
	var last uint64
	deadline, stableSince := time.Now().Add(3*time.Second), time.Now()
	for first := true; ; first = false {
		st, err := t.c.Stats()
		if err != nil {
			return 0, err
		}
		if first || st.Generation != last {
			last, stableSince = st.Generation, time.Now()
		}
		if time.Now().After(deadline) || time.Since(stableSince) >= 300*time.Millisecond {
			return last, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// layerCounts reads what the measured window left behind: tails, the
// generator's own lateness, and the server's counters.
func (e *env) layerCounts(res *windowResult, gen0 uint64, out map[string]float64) error {
	rec := res.rec
	tails := func(layer string) {
		for _, k := range []opKind{opPoint, opAppend} {
			lat := sortedCopy(rec.lat[k])
			out[layer+"."+kindNames[k]+"_p99_us"] = percentile(lat, 99)
			if p, v, ok := tailPercentile(lat); ok {
				out[layer+"."+kindNames[k]+"_tail_us"] = v
				fmt.Fprintf(os.Stderr, "bench: %s: %s tail is p%v over %d samples\n", e.w.name, kindNames[k], p, len(lat))
			}
		}
	}
	switch e.w.surface {
	case "wire":
		tails("wire")
	case "http":
		tails("burstd")
		for _, t := range e.run.targets {
			out["burstd.shed_503"] += float64(t.(*httpTarget).shed)
		}
		out["burstd.late_50ms"] = float64(rec.late)
	}
	lag := sortedCopy(rec.lag)
	out["bench.sched_lag_p50_us"] = percentile(lag, 50)
	out["bench.sched_lag_p99_us"] = percentile(lag, 99)
	// Up to a timer tick (1 ms on a small VM) of lateness is the kernel's
	// sleep granularity and is kept out of the latencies; more than that
	// means the generator itself could not keep its schedule.
	if p50 := percentile(lag, 50); p50 > 2000 {
		fmt.Fprintf(os.Stderr, "bench: %s: warning: the load generator ran %.0f µs late at the median\n", e.w.name, p50)
	}
	stall := rec.lat[opBulk]
	if len(stall) == 0 {
		stall = rec.lat[opAppend]
	}
	if s := sortedCopy(stall); len(s) > 0 && percentile(s, 50) > 0 {
		out["segstore.append_p99_over_p50"] = percentile(s, 99) / percentile(s, 50)
	}
	if e.alerts != nil {
		fired, gaps := e.alerts.count()
		out["subscribe.alerts_fired"] = float64(fired)
		out["subscribe.alerts_dropped"] = float64(gaps)
		var delays []float64
		for _, p := range rec.planted {
			if at, ok := e.alerts.arrival(p.id); ok {
				delays = append(delays, micros(at.Sub(p.sent)))
			}
		}
		out["subscribe.alert_delay_p50_us"] = median(delays)
	}
	if e.srv == nil {
		return nil
	}

	rss, err := procPeakRSS(e.srv.pid())
	if err != nil {
		return err
	}
	out["burstd.rss_peak_mb"] = rss
	gen, err := e.quiesce()
	if err != nil {
		return err
	}
	out["segstore.generations"] = float64(gen - gen0)
	var dir struct {
		Segments []struct {
			Tier int `json:"tier"`
		} `json:"segments"`
	}
	h := newHTTPTarget(e.srv.httpAddr)
	defer h.close()
	if err := h.getJSON("/v1/segments", &dir); err != nil {
		return err
	}
	out["segstore.segments"] = float64(len(dir.Segments))
	for _, s := range dir.Segments {
		if s.Tier <= 2 {
			out[fmt.Sprintf("segstore.tier%d_segments", s.Tier)]++
		}
	}
	tot, err := e.totals()
	if err != nil {
		return err
	}
	out["segstore.rejected"] = float64(tot.rejected)
	return nil
}
