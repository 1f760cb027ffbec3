// Command burstcli answers one burstiness query from the command line —
// against a detector built from a dataset (-in) or loaded from a saved
// sketch (-sketch), a store directory (-dir), or a running burstd over the
// HBP1 wire protocol (-addr) — and seals ingestion periods into a store
// directory:
//
//	burstcli -in data.hbst -save data.hbsk -stats
//	burstcli -sketch data.hbsk -point -e 3 -t 1700000 -tau 86400
//	burstcli seal -dir ./arch -in day1.hbst -k 4096
//	burstcli -dir ./arch -times -e 3 -theta 500 -tau 3600
//	burstcli -addr localhost:8428 -events -t 1700000 -theta 500
//
// Every source answers through the read path burstd's handlers run (wire's
// Answer* functions), so a sketch file, a store seeded with it and a burstd
// serving that store print the same floats; degraded-history answers carry
// the store's error envelope. The directory seal writes is an ordinary
// store directory (`burstd -snapshots` serves it); a period starting behind
// its frontier is refused, and every seal must name the sketch
// configuration (-k, -gamma, -seed) the first one pinned.
//
// Standing queries and a running server's segment table are subcommands
// (see runAlertCmd, runSegmentsCmd):
//
//	burstcli subscribe -http http://localhost:8427 -events 3,7 -theta 500 -follow
//	burstcli subscribe -addr localhost:8428 -events 3,7 -theta 500
//	burstcli alerts -http http://localhost:8427 -ids 2
//	burstcli unsubscribe -http http://localhost:8427 -id 2
//	burstcli segments -http http://localhost:8427 -full
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"histburst"
	"histburst/internal/metrics"
	"histburst/internal/pbe"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/wire"
)

func main() {
	var cmd string
	if len(os.Args) > 1 {
		cmd = os.Args[1]
	}
	var err error
	switch cmd {
	case "subscribe", "unsubscribe", "alerts":
		err = runAlertCmd(cmd, os.Args[2:])
	case "segments":
		err = runSegmentsCmd(os.Args[2:])
	default:
		err = run(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "burstcli:", err)
		os.Exit(1)
	}
}

// run answers the query args describe and prints it to out; with "seal"
// first it seals a period into a store directory instead.
func run(args []string, out io.Writer) (err error) {
	if len(args) > 0 && args[0] == "seal" {
		return seal(args[1:], out)
	}
	fs := flag.NewFlagSet("burstcli", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "build a detector from this dataset file (burstgen)")
		sketch = fs.String("sketch", "", "load a saved sketch")
		dir    = fs.String("dir", "", "query the store directory in place (burstd -snapshots, burstcli seal)")
		addr   = fs.String("addr", "", "query a running burstd over HBP1 at this address")
		save   = fs.String("save", "", "save the detector (-in or -sketch) to this file")
		point  = fs.Bool("point", false, "POINT QUERY: burstiness of event -e at time -t")
		times  = fs.Bool("times", false, "BURSTY TIME QUERY: when was event -e bursty above -theta")
		evts   = fs.Bool("events", false, "BURSTY EVENT QUERY: which events were bursty at time -t above -theta")
		stats  = fs.Bool("stats", false, "print dataset and sketch statistics")

		e     = fs.Uint64("e", 0, "event id")
		t     = fs.Int64("t", 0, "query time instant")
		tau   = fs.Int64("tau", wire.DefaultTau, "burst span τ")
		theta = fs.Float64("theta", 100, "burstiness threshold θ")

		gamma = fs.Float64("gamma", 8, "PBE-2 error cap γ for a detector built from -in")
		seed  = fs.Int64("seed", 1, "sketch hash seed for a detector built from -in")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown command %q", fs.Arg(0))
	}
	sources := 0
	for _, s := range []string{*in, *sketch, *dir, *addr} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("pass one of -in (dataset), -sketch (saved sketch), -dir (store directory) or -addr (burstd)")
	}
	// A query's τ is checked once, before a source is opened: HBP1 reads a
	// τ of 0 as its default span, so -addr would answer for a span nobody
	// asked for.
	if !*stats && (*point || *times || *evts) {
		if _, err := pbe.NewSpan(*tau); err != nil {
			return err
		}
	}
	var b backend
	switch {
	case *in != "":
		b, err = buildDetector(*in, *gamma, *seed)
	case *sketch != "":
		var det *histburst.Detector
		det, err = histburst.LoadFile(*sketch)
		b = &detector{answerer: answerer{det}, det: det}
	case *dir != "":
		b, err = openDir(*dir)
	default:
		var c *wire.Client
		if c, err = wire.Dial(*addr, 10*time.Second); err != nil {
			return fmt.Errorf("dial %s: %w", *addr, err)
		}
		b = remote{c}
	}
	if err != nil {
		return err
	}
	// Closing a store directory seals whatever a replayed write-ahead log
	// left in its head, so that error is part of the command's outcome.
	defer func() {
		if cerr := b.Close(); err == nil {
			err = cerr
		}
	}()

	if *save != "" {
		d, ok := b.(*detector)
		if !ok {
			return fmt.Errorf("-save needs -in or -sketch")
		}
		if err := d.det.SaveFile(*save); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved sketch to %s (%s)\n", *save, metrics.HumanBytes(d.det.Bytes()))
	}

	switch {
	case *stats:
		return b.printStats(out)
	case *point:
		res, err := b.Point([]wire.PointQuery{{Event: *e, T: *t, Tau: *tau}})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "b_%d(%d) ≈ %.1f (τ=%d)%s\n", *e, *t, res[0].Burstiness, *tau, envelopeNote(res[0].Envelope))
	case *times:
		ranges, env, err := b.Times(*e, *theta, *tau)
		if err != nil {
			return err
		}
		printNote(out, env)
		if len(ranges) == 0 {
			fmt.Fprintf(out, "event %d never reaches burstiness %.0f (τ=%d)\n", *e, *theta, *tau)
		}
		for _, r := range ranges {
			fmt.Fprintf(out, "[%d, %d)\n", r.Start, r.End)
		}
	case *evts:
		hits, env, err := b.Events(*t, *theta, *tau)
		if err != nil {
			return err
		}
		printNote(out, env)
		if len(hits) == 0 {
			fmt.Fprintf(out, "no event reaches burstiness %.0f at t=%d (τ=%d)\n", *theta, *t, *tau)
		}
		for _, h := range hits {
			fmt.Fprintf(out, "event %-8d b ≈ %.1f\n", h.Event, h.Burstiness)
		}
	case *save == "":
		return fmt.Errorf("pass one of -point, -times, -events, -stats (or -save)")
	}
	return nil
}

// backend is where a query goes. Its query methods are wire.Client's, so a
// burstd across HBP1 is one as it stands; a local detector or store
// directory lends them wire's Answer* functions.
type backend interface {
	Point(qs []wire.PointQuery) ([]wire.PointResult, error)
	Times(e uint64, theta float64, tau int64) ([]histburst.TimeRange, *pbe.ErrorEnvelope, error)
	Events(t int64, theta float64, tau int64) ([]wire.EventHit, *pbe.ErrorEnvelope, error)
	printStats(out io.Writer) error
	Close() error
}

// answerer answers through the shared read path over a local source.
type answerer struct{ q wire.Querier }

func (a answerer) Point(qs []wire.PointQuery) ([]wire.PointResult, error) {
	return wire.AnswerPoint(a.q, qs)
}

func (a answerer) Times(e uint64, theta float64, tau int64) ([]histburst.TimeRange, *pbe.ErrorEnvelope, error) {
	return wire.AnswerTimes(a.q, e, theta, tau)
}

func (a answerer) Events(t int64, theta float64, tau int64) ([]wire.EventHit, *pbe.ErrorEnvelope, error) {
	return wire.AnswerEvents(a.q, t, theta, tau)
}

// detector is a sketch built here from a dataset or loaded from a file.
type detector struct {
	answerer
	det       *histburst.Detector
	distinct  int           // distinct event ids in the dataset (0 when loaded)
	buildTime time.Duration // how long building took
}

func buildDetector(path string, gamma float64, seed int64) (*detector, error) {
	data, err := stream.ReadFile(path)
	if err != nil {
		return nil, err
	}
	events := data.Events()
	k := uint64(1)
	for _, ev := range events {
		k = max(k, ev+1)
	}
	det, err := histburst.New(k, histburst.WithPBE2(gamma), histburst.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	sw := metrics.NewStopwatch()
	for _, el := range data {
		det.Append(el.Event, el.Time)
	}
	det.Finish()
	return &detector{answerer{det}, det, len(events), sw.Elapsed()}, nil
}

func (d *detector) printStats(out io.Writer) error {
	printSummary(out, d.det.N(), d.det.K(), d.det.MinTime(), d.det.MaxTime(), d.det.Bytes())
	if d.distinct > 0 {
		fmt.Fprintf(out, "distinct events:%d\n", d.distinct)
		fmt.Fprintf(out, "raw size:       %s (8 B per element)\n", metrics.HumanBytes(8*int(d.det.N())))
		fmt.Fprintf(out, "build time:     %v\n", d.buildTime)
	}
	return nil
}

func (d *detector) Close() error { return nil }

// storeDir is a store directory opened for one command, queried through one
// snapshot of it.
type storeDir struct {
	answerer
	st *segstore.Store
	sn *segstore.Snapshot
}

// openDir opens the store in dir; unlike seal it never creates one.
func openDir(dir string) (*storeDir, error) {
	if _, err := os.Stat(filepath.Join(dir, segstore.ManifestName)); err != nil {
		return nil, fmt.Errorf("no store in %s: %w", dir, err)
	}
	st, err := segstore.Open(dir, oneShot)
	if err != nil {
		return nil, err
	}
	sn := st.Snapshot()
	return &storeDir{answerer{sn}, st, sn}, nil
}

func (s *storeDir) printStats(out io.Writer) error {
	printSummary(out, s.sn.N(), s.st.K(), s.sn.MinTime(), s.sn.MaxTime(), s.sn.Bytes())
	fmt.Fprintf(out, "segments:       %d (%d resident, %d quarantined) at generation %d\n",
		len(s.sn.Segments()), s.sn.Resident(), len(s.sn.Quarantined()), s.sn.Generation())
	return nil
}

func (s *storeDir) Close() error { return s.st.Close() }

// printSummary prints the lines every local source shares.
func printSummary(out io.Writer, n int64, k uint64, minT, maxT int64, bytes int) {
	fmt.Fprintf(out, "elements:       %d\n", n)
	fmt.Fprintf(out, "id space:       %d\n", k)
	if n > 0 {
		fmt.Fprintf(out, "time span:      [%d, %d]\n", minT, maxT)
	}
	fmt.Fprintf(out, "sketch size:    %s\n", metrics.HumanBytes(bytes))
}

// remote is a running burstd across HBP1.
type remote struct{ *wire.Client }

// printStats prints what a STATS frame carries: the server's frontier, not
// the span of its history.
func (r remote) printStats(out io.Writer) error {
	st, err := r.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "elements:       %d\n", st.Elements)
	fmt.Fprintf(out, "id space:       %d (γ=%g)\n", st.EventSpace, r.Hello().Gamma)
	fmt.Fprintf(out, "max time:       %d\n", st.MaxTime)
	fmt.Fprintf(out, "sketch size:    %s\n", metrics.HumanBytes(int(st.Bytes)))
	if st.Bytes > 0 {
		fmt.Fprintf(out, "process heap:   %s (%.2f× the sketch size it counts)\n",
			metrics.HumanBytes(int(st.HeapAlloc)), float64(st.HeapAlloc)/float64(st.Bytes))
	}
	fmt.Fprintf(out, "segments:       %d (%d resident, %d quarantined, head %d elems)\n",
		st.Segments, st.Resident, st.Quarantined, st.HeadElems)
	if st.ReadOnly {
		fmt.Fprintf(out, "mode:           read-only (degraded)\n")
	}
	return nil
}

// printNote prints a degraded-history warning on its own line.
func printNote(out io.Writer, env *pbe.ErrorEnvelope) {
	if note := envelopeNote(env); note != "" {
		fmt.Fprintln(out, note)
	}
}

// envelopeNote renders a degraded-history warning, empty when the history
// is whole.
func envelopeNote(env *pbe.ErrorEnvelope) string {
	if env == nil {
		return ""
	}
	if !env.Degraded {
		return fmt.Sprintf("  [error bound ±%.3g (%d components, γ=%g)]",
			env.Bound, env.Components, env.Gamma)
	}
	return fmt.Sprintf("  [degraded: %d elements missing in %d quarantined spans, bound ±%.3g]",
		env.MissingElements, len(env.Missing), env.Bound)
}

// oneShot is the lifecycle of a store opened for a single command: each
// sealed period stays the one segment its seal wrote, and no background
// compactor or scrubber is started for the few milliseconds the process
// lives.
var oneShot = segstore.Config{SealEvents: -1, CompactFanout: -1, ScrubInterval: -1}

// seal implements `burstcli seal`: it appends one period's dataset to the
// store in -dir (creating it on the first seal) as one sealed segment.
func seal(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("burstcli seal", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required; created by the first seal)")
	in := fs.String("in", "", "period dataset file from burstgen (required)")
	k := fs.Uint64("k", 4096, "event-id space (same for every period)")
	gamma := fs.Float64("gamma", 8, "PBE-2 error cap γ (same for every period)")
	seed := fs.Int64("seed", 1, "sketch seed (same for every period)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *in == "" {
		return fmt.Errorf("seal: -dir and -in are required")
	}
	data, err := stream.ReadFile(*in)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("seal: %s holds no elements", *in)
	}
	cfg := oneShot
	cfg.K, cfg.Gamma, cfg.Seed = *k, *gamma, *seed
	st, err := segstore.Open(*dir, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	if first, frontier := data[0].Time, st.Frontier(); first < frontier {
		return fmt.Errorf("seal: period starts at %d, behind the store frontier %d (it overlaps sealed history)", first, frontier)
	}
	if _, rejected, err := st.AppendBatch(data); err != nil {
		return err
	} else if rejected > 0 {
		return fmt.Errorf("seal: %d elements of %s are out of time order", rejected, *in)
	}
	if err := st.Checkpoint(true); err != nil {
		return err
	}
	sn := st.Snapshot()
	fmt.Fprintf(out, "sealed period [%d, %d]: %d elements (store: %d segments, %s)\n",
		data[0].Time, data[len(data)-1].Time, len(data), len(sn.Segments()), metrics.HumanBytes(sn.Bytes()))
	return nil
}
