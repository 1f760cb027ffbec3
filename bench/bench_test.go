package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sample := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20},
	} {
		if got := percentile(sample, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{50, 0, false},       // p90 leaves 5 beyond
		{100, 90, true},      // p90 leaves 10, p95 only 5
		{200, 95, true},      // p95 leaves 10, p99 only 2
		{1000, 99, true},     // p99 leaves 10, p99.9 only 1
		{10_000, 99.9, true}, // p99.9 leaves 10, p99.99 only 1
		{100_000, 99.99, true},
	} {
		p, v, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: tail = p%v (ok %v), want p%v (ok %v)", c.n, p, ok, c.wantP, c.ok)
		}
		if ok && float64(c.n)-v < 10 {
			t.Errorf("n=%d: p%v = %v leaves fewer than ten samples beyond it", c.n, p, v)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := relSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSteadyPercentileIgnoresAMinorityOfDisturbedRuns(t *testing.T) {
	lat := make([]float64, 2000)
	for i := range lat {
		lat[i] = 100
		if i >= 400 && i < 800 { // a stall covering a fifth of the window
			lat[i] = 5000
		}
	}
	if got := steadyPercentile(lat, 90); got != 100 {
		t.Errorf("steady p90 = %v, want 100: a stall in 4 of 20 runs must not set it", got)
	}
	if got := percentile(sortedCopy(lat), 90); got != 5000 {
		t.Errorf("plain p90 = %v, want 5000 (the contrast this test relies on)", got)
	}
	if got := steadyPercentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("steady p50 of a short sample = %v, want the plain median 2", got)
	}
}

func TestOpenLoopScheduleAndLatenessAccounting(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	if got := dueTime(start, 0, 200); !got.Equal(start) {
		t.Errorf("op 0 due at %v, want the start", got)
	}
	if got := dueTime(start, 3, 200).Sub(start); got != 15*time.Millisecond {
		t.Errorf("op 3 at 200/s due after %v, want 15ms", got)
	}
	// An absolute schedule: a late op does not move the ones after it.
	if got := dueTime(start, 400, 400).Sub(start); got != time.Second {
		t.Errorf("op 400 at 400/s due after %v, want 1s", got)
	}

	due := start.Add(10 * time.Millisecond)
	sent := due.Add(300 * time.Microsecond)
	done := sent.Add(2 * time.Millisecond)
	// The connection was free before the op was due: the 300 µs are the
	// generator's own lateness, reported and not billed to the system.
	var open recorder
	open.note(opPoint, true, due, due.Add(-time.Millisecond), sent, done)
	if got := open.lat[opPoint][0]; got != 2000 {
		t.Errorf("open-loop latency = %v µs, want 2000 (the generator's lateness is not the system's)", got)
	}
	if got := open.lag[0]; got != 300 {
		t.Errorf("generator lateness = %v µs, want 300", got)
	}
	// The previous op completed 250 µs after this one was due: that wait is
	// the system's and is billed; only the last 50 µs are the generator's.
	open.note(opPoint, true, due, due.Add(250*time.Microsecond), sent, done)
	if got := open.lat[opPoint][1]; got != 2250 {
		t.Errorf("open-loop latency behind a stall = %v µs, want 2250 (queueing from the due time)", got)
	}
	if got := open.lag[1]; got != 50 {
		t.Errorf("generator lateness behind a stall = %v µs, want 50", got)
	}
	open.note(opPoint, true, due, due, sent, sent.Add(lateLimit+time.Millisecond))
	if open.late != 1 {
		t.Errorf("late = %d, want 1 op past the %v limit", open.late, lateLimit)
	}
	var closed recorder
	closed.note(opPoint, false, due, due, sent, done)
	if got := closed.lat[opPoint][0]; got != 2000 {
		t.Errorf("closed-loop latency = %v µs, want 2000 (from the send)", got)
	}
	if len(closed.lag) != 0 {
		t.Errorf("a closed loop has no schedule to be late for, got lag %v", closed.lag)
	}
}

func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	// op(0..100) > rtt(10..90) > commit(20..70) > evaluate(30..40);
	// query(100..130) is a replayed child of rtt, after its interval.
	spans := []span{
		{Op: 1, ID: 1, Parent: 0, Name: "op.append", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "wire.rtt", Start: 10, End: 90},
		{Op: 1, ID: 3, Parent: 2, Name: "segstore.commit", Start: 20, End: 70},
		{Op: 1, ID: 4, Parent: 3, Name: "subscribe.evaluate", Start: 30, End: 40},
		{Op: 1, ID: 5, Parent: 2, Name: "segstore.query", Start: 100, End: 130, Replay: true},
		{Op: 2, ID: 6, Parent: 0, Name: "op.point", Start: 200, End: 210},
		{Op: 2, ID: 7, Parent: 6, Name: "wire.rtt", Start: 201, End: 209},
		{Op: 2, ID: 8, Parent: 7, Name: "segstore.query", Start: 210, End: 230, Replay: true}, // longer than its parent
	}
	want := []int64{20, 0, 40, 10, 30, 2, 0, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s (span %d) = %d, want %d", spans[i].Name, spans[i].ID, got[i], want[i])
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var got, want []string
	for _, w := range file.Workloads {
		got = append(got, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
		if def, ok := findWorkload(w.Name); ok && def.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the program give different reasons", w.Name)
		}
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sameSet(t, "workloads", got, want, name)

	check := func(kind string, file []declared, prog []metricDef, bounded bool) {
		var got, want []string
		byName := map[string]metricDef{}
		for _, d := range prog {
			want = append(want, d.name)
			byName[d.name] = d
		}
		for _, d := range file {
			got = append(got, d.Name)
			p, ok := byName[d.Name]
			if !ok {
				continue
			}
			if d.Unit != p.unit || d.Better != p.better {
				t.Errorf("%s %s: BENCHMARK.json says %s/%s, the program %s/%s", kind, d.Name, d.Unit, d.Better, p.unit, p.better)
			}
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s %s: unit %q outside the allowed alphabet", kind, d.Name, d.Unit)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != p.bound || *d.Bound <= 0 || *d.Bound > 0.25):
				t.Errorf("%s %s: bound %v, the program has %v (0 < bound ≤ 0.25)", kind, d.Name, d.Bound, p.bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
		sameSet(t, kind, got, want, name)
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the 16 and 128 allowed", len(file.EndToEnd), len(file.PerLayer))
	}
}

func sameSet(t *testing.T, what string, got, want []string, alphabet *regexp.Regexp) {
	t.Helper()
	seen := map[string]bool{}
	for _, g := range got {
		if !alphabet.MatchString(g) {
			t.Errorf("%s: name %q outside the allowed alphabet", what, g)
		}
		if seen[g] {
			t.Errorf("%s: name %q declared twice", what, g)
		}
		seen[g] = true
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json declares %d names, the program prints %d\n json:    %v\n program: %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: BENCHMARK.json has %q where the program has %q", what, got[i], want[i])
		}
	}
}

// TestQuickSmoke runs every workload end to end on small data, plain and
// traced, against a burstd built from the working tree.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs burstd")
	}
	dir := t.TempDir()
	bin, err := buildBurstd(".", dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAllChildren)
	opt := options{
		seed: 7, window: time.Second, warmup: 200 * time.Millisecond, sz: quickSizes,
		burstd: bin, scratch: dir, traceTo: filepath.Join(dir, traceFile),
	}
	for _, w := range workloads {
		plain, err := runPlain(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d ops failed", w.name, plain.Correct, plain.Failed, plain.Attempted)
		}
		for _, def := range endToEnd {
			if m, ok := plain.Metrics[def.name]; !ok || m.Value <= 0 || m.Unit != def.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.name, def.name, m, def.unit)
			}
		}
		for _, def := range runPrefixed(runLevel) {
			if m, ok := plain.Ungated[def.name]; !ok || m.Value <= 0 {
				t.Errorf("%s: run-level metric %s = %+v, want a positive value", w.name, def.name, m)
			}
		}
		traced, err := runTraced(w, opt)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !traced.Correct || traced.Failed != 0 {
			t.Errorf("%s traced: correct %v, %d ops failed", w.name, traced.Correct, traced.Failed)
		}
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", w.name, len(traced.Metrics), len(perLayer))
		}
		for _, layer := range []string{"wire.point_rtt_us", "burstd.http_point_rtt_us", "burstd.rss_peak_mb"} {
			onPath := (w.surface == "wire" && layer[:4] == "wire") || (w.surface == "http" && layer[:6] == "burstd") ||
				(w.surface != "lib" && layer == "burstd.rss_peak_mb")
			if got := traced.Metrics[layer].Value; (got > 0) != onPath {
				t.Errorf("%s traced: %s = %v, want it positive exactly when the layer is on the workload's path", w.name, layer, got)
			}
		}
		if traced.Metrics["histburst.point_ns"].Value <= 0 || traced.Metrics["bench.trace_spans"].Value <= 0 {
			t.Errorf("%s traced: the layer probes or the trace produced nothing", w.name)
		}
	}
	if _, err := os.Stat(opt.traceTo); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}
