// Command bench is the repository's benchmark: four workloads, each measured
// end to end with tracing off, or layer by layer in a separate traced run.
// BENCHMARK.json at the repository root declares the workloads and metrics;
// README.md in this directory explains how they were chosen.
//
//	bench -workload wire_query -seed 1 -seconds 10 -trace 0
//
// prints one "<workload> <metric> <value> <unit>" line per metric and, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. Without -workload every workload runs in
// turn; -repeat N runs the selection N times with consecutive seeds and
// reports medians, quartiles and relative spreads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets the system up from nothing; the
// median is reported as setup_s and the last set-up is the one measured.
const setupRepeats = 3

// runCap is the hard wall-clock cap of one run of one workload.
const runCap = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run ends with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Ungated holds what a plain run measured beyond the end-to-end metrics;
	// it is printed for the reader and kept out of the JSON line.
	Ungated map[string]metricValue `json:"-"`
}

// main's one goroutine waits for SIGINT or SIGTERM for as long as the process
// lives, and leaves through the same exit as every other path.
//
//histburst:worker exit
func main() {
	if len(os.Args) == 2 && os.Args[1] == keepAwakeFlag {
		spin()
	}
	var (
		workload = flag.String("workload", "", "workload to run (default: all of them in turn)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run that reports the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "noise study: run this many times with consecutive seeds")
		quick    = flag.Bool("quick", false, "smoke run: small data, 1 s window")
		burstd   = flag.String("burstd", "", "burstd binary (default: build it from source)")
		scratch  = flag.String("scratch", ".bench_build", "directory for temporary files; created if missing")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected argument %q", flag.Arg(0))
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := findWorkload(*workload); !ok {
		fatalf(2, "unknown workload %q", *workload)
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fatalf(2, "need -seconds > 0, -repeat ≥ 1 and -trace 0 or 1")
	}

	opt := options{seed: *seed, sz: fullSizes, warmup: 500 * time.Millisecond, burstd: *burstd}
	opt.window = time.Duration(*seconds * float64(time.Second))
	if *quick {
		opt.sz, opt.window, opt.warmup = quickSizes, time.Second, 200*time.Millisecond
	}

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatalf(1, "%v", err)
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fatalf(1, "%v", err)
	}
	if opt.scratch, err = filepath.Abs(dir); err != nil {
		fatalf(1, "%v", err)
	}
	opt.traceTo = filepath.Join(*scratch, traceFile)
	// Every exit path goes through cleanup: children killed and reaped,
	// scratch removed.
	cleanup := func() {
		killAllChildren()
		os.RemoveAll(opt.scratch) //histburst:allow errdrop -- best effort on the way out
	}
	exit := func(code int) {
		cleanup()
		os.Exit(code)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		exit(130)
	}()

	if err := keepAwake(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		exit(1)
	}
	if opt.burstd == "" {
		modDir, err := moduleDir()
		if err == nil {
			opt.burstd, err = buildBurstd(modDir, opt.scratch)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			exit(1)
		}
	}

	ok := true
	var last report
	series := map[string][]float64{} // "workload metric" → one value per repeat
	for i := 0; i < *repeat; i++ {
		for _, name := range names {
			w, _ := findWorkload(name)
			o := opt
			o.seed = opt.seed + int64(i)
			rep, err := runCapped(w, o, *trace == 1, exit)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				exit(1)
			}
			for _, group := range []map[string]metricValue{rep.Metrics, rep.Ungated} {
				for _, metric := range sortedKeys(group) {
					m := group[metric]
					fmt.Printf("%s %s %v %s\n", name, metric, m.Value, m.Unit)
					series[name+" "+metric] = append(series[name+" "+metric], m.Value)
				}
			}
			ok = ok && rep.Correct
			last = rep
		}
	}
	if *repeat > 1 {
		printNoiseStudy(series)
	}
	if len(names) == 1 && *repeat == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		exit(1)
	}
	exit(0)
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// moduleDir finds the benchmark's own module, from the repository root or
// from inside it.
func moduleDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module histburst/bench") {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from bench/, or pass -burstd")
}

func sortedKeys(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runCapped runs one workload under the wall-clock cap: a run that hangs is
// killed with its children instead of outliving the caller's patience.
func runCapped(w workloadDef, opt options, traced bool, exit func(int)) (report, error) {
	watchdog := time.AfterFunc(runCap, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: exceeded the %s cap\n", w.name, runCap)
		exit(1)
	})
	defer watchdog.Stop()
	if traced {
		return runTraced(w, opt)
	}
	return runPlain(w, opt)
}

// runPlain is the untraced run: set up several times, measure the last
// set-up over the timed window, verify, report the end-to-end metrics.
func runPlain(w workloadDef, opt options) (report, error) {
	var (
		e        *env
		setups   []float64
		restarts []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, opt); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		restarts = append(restarts, e.restartMs...)
	}
	defer e.tearDown()
	e.restartMs = restarts

	res, err := e.runWindow(opt.window)
	if err != nil {
		return report{}, err
	}
	acc, err := e.measureAccuracy()
	if err != nil {
		return report{}, e.explain(fmt.Errorf("accuracy pass: %w", err))
	}
	var v verdict
	err = e.verify(res, &v)
	if err == nil && e.srv != nil {
		err = e.verifyDurable(&v)
	}
	if err != nil {
		return report{}, fmt.Errorf("verify: %w", err)
	}
	rep := newReport(w, res.rec, &v)
	values := e.endToEnd(res, setups, acc)
	for _, def := range endToEnd {
		rep.Metrics[def.name] = metricValue{Value: values[def.name], Unit: def.unit}
	}
	rep.Ungated = map[string]metricValue{}
	for _, def := range runLevel {
		rep.Ungated["run."+def.name] = metricValue{Value: values[def.name], Unit: def.unit}
	}
	return rep, nil
}

// newReport starts a run's report from what the window and the checks found,
// and tells standard error about anything wrong.
func newReport(w workloadDef, rec *recorder, v *verdict) report {
	for _, p := range v.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: WRONG: %s\n", w.name, p)
	}
	if rec.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed, first: %v\n", w.name, rec.failed, rec.attempted, rec.firstErr)
	}
	return report{Correct: len(v.problems) == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metricValue{}}
}

// printNoiseStudy summarises a -repeat run: per workload and metric the
// median, the quartiles as Python's statistics.quantiles gives them, and the
// interquartile distance as a share of the median, flagged when it exceeds
// the metric's bound.
func printNoiseStudy(series map[string][]float64) {
	bounds := map[string]float64{}
	for _, def := range endToEnd {
		bounds[def.name] = def.bound
	}
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("\n%-34s %14s %14s %14s %8s\n", "workload metric", "q1", "median", "q3", "spread")
	for _, k := range keys {
		q1, q2, q3 := quartiles(series[k])
		spread := relSpread(series[k])
		flag := ""
		_, metric, _ := strings.Cut(k, " ")
		if b, gated := bounds[metric]; gated && metric != "setup_s" && spread > b {
			flag = "  > bound"
		} else if gated && metric != "setup_s" && spread > b/3 {
			flag = "  > bound/3"
		}
		fmt.Printf("%-34s %14.6g %14.6g %14.6g %7.2f%%%s\n", k, q1, q2, q3, 100*spread, flag)
	}
}
