// Command burstarchive keeps a history of burstiness summaries in a segment
// store directory, one sealed segment per ingestion period (a day, an hour),
// and answers historical queries across the whole history without the raw
// data.
//
//	burstarchive seal   -dir ./arch -in day1.hbst -k 4096
//	burstarchive seal   -dir ./arch -in day2.hbst -k 4096
//	burstarchive stats  -dir ./arch
//	burstarchive events -dir ./arch -t 120000 -theta 500 -tau 3600
//	burstarchive point  -dir ./arch -e 3 -t 120000 -tau 3600
//
// The directory is an ordinary store directory: the first seal creates it,
// `burstd -snapshots ./arch` serves it and `burstcli segments` lists it.
// Periods must arrive in time order — a period starting behind the store's
// frontier is refused — and every seal must name the sketch configuration
// (-k, -gamma, -seed) the first one pinned.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"histburst/internal/metrics"
	"histburst/internal/segstore"
	"histburst/internal/stream"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if err := run(cmd, args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "burstarchive:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: burstarchive <seal|stats|point|events> [flags]")
}

// oneShot is the lifecycle of a store opened for a single command: each
// period stays the one segment its seal wrote, and no background compactor
// or scrubber is started for the few milliseconds the process lives.
var oneShot = segstore.Config{SealEvents: -1, CompactFanout: -1, ScrubInterval: -1}

// openExisting opens the store in dir for a read command; unlike seal it
// must not create one.
func openExisting(dir string) (*segstore.Store, error) {
	if _, err := os.Stat(filepath.Join(dir, segstore.ManifestName)); err != nil {
		return nil, fmt.Errorf("no store in %s: %w", dir, err)
	}
	return segstore.Open(dir, oneShot)
}

func run(cmd string, args []string, out *os.File) (err error) {
	var st *segstore.Store
	// Close seals whatever the command (or a replayed write-ahead log) left
	// in the head, so its error is part of the command's outcome.
	defer func() {
		if st == nil {
			return
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()

	switch cmd {
	case "seal":
		fs := flag.NewFlagSet("seal", flag.ContinueOnError)
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
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		data, err := stream.Read(f)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return fmt.Errorf("seal: %s holds no elements", *in)
		}
		cfg := oneShot
		cfg.K, cfg.Gamma, cfg.Seed = *k, *gamma, *seed
		if st, err = segstore.Open(*dir, cfg); err != nil {
			return err
		}
		if first, frontier := data[0].Time, st.Frontier(); first < frontier {
			return fmt.Errorf("seal: period starts at %d, behind the store frontier %d (it overlaps sealed history)", first, frontier)
		}
		if err := st.AppendStream(data); err != nil {
			return err
		}
		if err := st.Checkpoint(true); err != nil {
			return err
		}
		sn := st.Snapshot()
		fmt.Fprintf(out, "sealed period [%d, %d]: %d elements (store: %d segments, %s)\n",
			data[0].Time, data[len(data)-1].Time, len(data), len(sn.Segments()), metrics.HumanBytes(sn.Bytes()))
		return nil

	case "stats":
		fs := flag.NewFlagSet("stats", flag.ContinueOnError)
		dir := fs.String("dir", "", "store directory (required)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *dir == "" {
			return fmt.Errorf("stats: -dir is required")
		}
		if st, err = openExisting(*dir); err != nil {
			return err
		}
		sn := st.Snapshot()
		fmt.Fprintf(out, "segments:   %d (%d resident)\n", len(sn.Segments()), sn.Resident())
		fmt.Fprintf(out, "elements:   %d\n", sn.N())
		if sn.N() > 0 {
			fmt.Fprintf(out, "span:       [%d, %d]\n", sn.MinTime(), sn.MaxTime())
		}
		fmt.Fprintf(out, "generation: %d\n", sn.Generation())
		return nil

	case "point", "events":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		dir := fs.String("dir", "", "store directory (required)")
		e := fs.Uint64("e", 0, "event id (point query)")
		t := fs.Int64("t", 0, "query instant")
		tau := fs.Int64("tau", 86_400, "burst span τ")
		theta := fs.Float64("theta", 100, "threshold θ (events query)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *dir == "" {
			return fmt.Errorf("%s: -dir is required", cmd)
		}
		if st, err = openExisting(*dir); err != nil {
			return err
		}
		sn := st.Snapshot()
		if cmd == "point" {
			b, err := sn.Burstiness(*e, *t, *tau)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "b_%d(%d) ≈ %.1f (τ=%d)\n", *e, *t, b, *tau)
			return nil
		}
		ids, err := sn.BurstyEvents(*t, *theta, *tau)
		if err != nil {
			return err
		}
		if len(ids) == 0 {
			fmt.Fprintf(out, "no event reaches burstiness %.0f at t=%d\n", *theta, *t)
			return nil
		}
		for _, id := range ids {
			b, err := sn.Burstiness(id, *t, *tau)
			if err != nil {
				return fmt.Errorf("burstiness of event %d: %w", id, err)
			}
			fmt.Fprintf(out, "event %-8d b ≈ %.1f\n", id, b)
		}
		return nil

	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}
