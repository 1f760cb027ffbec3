package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json carries
// the same declarations; the test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median it may worsen by; end-to-end only
}

// endToEnd is the gated part of what a user of the system sees: the metrics
// whose run-to-run spread (interquartile distance over median, ten runs with
// ten seeds) stayed under a third of their bound on every workload in every
// run-set of the noise study. On the shared two-core VM this was written on,
// that is set-up time and the metrics that count instead of timing; every
// latency, throughput and CPU cost swung between 2 % and 40 % with the host's
// mood and is reported under run. by the traced run instead (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_f1", "ratio", "higher", 0.10},
	// Under 2 % spread on three workloads; on wire_ingest and http_mixed which
	// segments the compactor merged before decaying them moves the footprint
	// by up to 4.3 %.
	{"bytes_per_elem", "B/elem", "lower", 0.15},
	{"disk_bytes_per_elem", "B/elem", "lower", 0.15},
}

// runLevel is every run-level measurement that is not gated, in the order the
// plain run prints them for the reader; the traced run reports them as
// run.<name> per-layer metrics.
var runLevel = []metricDef{
	{name: "restart_ms", unit: "ms", better: "lower"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "ingest_elems_per_s", unit: "elem/s", better: "higher"},
	{name: "point_qps", unit: "1/s", better: "higher"},
	{name: "append_p50_us", unit: "us", better: "lower"},
	{name: "append_p90_us", unit: "us", better: "lower"},
	{name: "point_p50_us", unit: "us", better: "lower"},
	{name: "point_p90_us", unit: "us", better: "lower"},
	{name: "times_p50_us", unit: "us", better: "lower"},
	{name: "events_p50_us", unit: "us", better: "lower"},
	{name: "point_abs_err", unit: "count", better: "lower"},
}

// perLayer is what single layers cost and count, from the traced run. A
// value of 0 on a workload means the layer is not on that workload's path
// (no wire or burstd numbers for the in-process library, for instance).
// None is gated; README.md names the end-to-end metric each should move.
var perLayer = append(runPrefixed(runLevel), layerMetrics...)

// runPrefixed renames the run-level metrics to their per-layer names.
func runPrefixed(defs []metricDef) []metricDef {
	out := make([]metricDef, len(defs))
	for i, d := range defs {
		d.name = "run." + d.name
		out[i] = d
	}
	return out
}

var layerMetrics = []metricDef{
	// histburst: the facade over cmpbe, pbe2, dyadic and hash, timed alone.
	{name: "histburst.append_ns", unit: "ns", better: "lower"},
	{name: "histburst.point_ns", unit: "ns", better: "lower"},
	{name: "histburst.times_us", unit: "us", better: "lower"},
	{name: "histburst.events_us", unit: "us", better: "lower"},
	{name: "histburst.merge_ms", unit: "ms", better: "lower"},
	{name: "histburst.downsample_ms", unit: "ms", better: "lower"},
	{name: "histburst.save_ms", unit: "ms", better: "lower"},
	{name: "histburst.load_ms", unit: "ms", better: "lower"},
	// segstore: unit costs, then what the store looked like after the run.
	{name: "segstore.append_ns_per_elem", unit: "ns", better: "lower"},
	{name: "segstore.commit_us", unit: "us", better: "lower"},
	{name: "segstore.commit_nosync_us", unit: "us", better: "lower"},
	{name: "segstore.wal_sync_us", unit: "us", better: "lower"},
	{name: "segstore.wal_bytes_per_elem", unit: "B/elem", better: "lower"},
	{name: "segstore.snapshot_ns", unit: "ns", better: "lower"},
	{name: "segstore.point_ns", unit: "ns", better: "lower"},
	{name: "segstore.point_self_ns", unit: "ns", better: "lower"},
	{name: "segstore.times_us", unit: "us", better: "lower"},
	{name: "segstore.events_us", unit: "us", better: "lower"},
	{name: "segstore.open_ms", unit: "ms", better: "lower"},
	{name: "segstore.segments", unit: "count", better: "lower"},
	{name: "segstore.tier0_segments", unit: "count", better: "lower"},
	{name: "segstore.tier1_segments", unit: "count", better: "lower"},
	{name: "segstore.tier2_segments", unit: "count", better: "lower"},
	{name: "segstore.generations", unit: "count", better: "lower"},
	{name: "segstore.rejected", unit: "count", better: "lower"},
	{name: "segstore.append_p99_over_p50", unit: "ratio", better: "lower"},
	{name: "segstore.decayed_point_us", unit: "us", better: "lower"},
	{name: "segstore.decayed_times_us", unit: "us", better: "lower"},
	{name: "segstore.decayed_events_us", unit: "us", better: "lower"},
	// wire: HBP1 codec, credit window and worker pool.
	{name: "wire.point_rtt_us", unit: "us", better: "lower"},
	{name: "wire.point_self_us", unit: "us", better: "lower"},
	{name: "wire.append_rtt_us", unit: "us", better: "lower"},
	{name: "wire.append_self_us", unit: "us", better: "lower"},
	{name: "wire.bytes_per_point_query", unit: "B", better: "lower"},
	{name: "wire.bytes_per_elem", unit: "B/elem", better: "lower"},
	{name: "wire.point_sat_qps", unit: "1/s", better: "higher"},
	{name: "wire.ingest_sat_elems_per_s", unit: "elem/s", better: "higher"},
	{name: "wire.point_p99_us", unit: "us", better: "lower"},
	{name: "wire.point_tail_us", unit: "us", better: "lower"},
	{name: "wire.append_p99_us", unit: "us", better: "lower"},
	{name: "wire.append_tail_us", unit: "us", better: "lower"},
	// burstd: the HTTP front end and the process.
	{name: "burstd.http_point_rtt_us", unit: "us", better: "lower"},
	{name: "burstd.http_point_self_us", unit: "us", better: "lower"},
	{name: "burstd.http_append_rtt_us", unit: "us", better: "lower"},
	{name: "burstd.http_bytes_per_point_query", unit: "B", better: "lower"},
	{name: "burstd.point_sat_qps", unit: "1/s", better: "higher"},
	{name: "burstd.ingest_sat_elems_per_s", unit: "elem/s", better: "higher"},
	{name: "burstd.shed_503", unit: "count", better: "lower"},
	{name: "burstd.late_50ms", unit: "count", better: "lower"},
	{name: "burstd.point_p99_us", unit: "us", better: "lower"},
	{name: "burstd.point_tail_us", unit: "us", better: "lower"},
	{name: "burstd.append_p99_us", unit: "us", better: "lower"},
	{name: "burstd.append_tail_us", unit: "us", better: "lower"},
	{name: "burstd.rss_peak_mb", unit: "MiB", better: "lower"},
	// subscribe: standing queries on the commit path.
	{name: "subscribe.evaluate_us", unit: "us", better: "lower"},
	{name: "subscribe.alerts_fired", unit: "count", better: "higher"},
	{name: "subscribe.alerts_dropped", unit: "count", better: "lower"},
	{name: "subscribe.alert_delay_p50_us", unit: "us", better: "lower"},
	// bench: the instrument itself.
	{name: "bench.sched_lag_p50_us", unit: "us", better: "lower"},
	{name: "bench.sched_lag_p99_us", unit: "us", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.trace_spans", unit: "count", better: "higher"},
	{name: "bench.trace_dropped", unit: "count", better: "lower"},
}
