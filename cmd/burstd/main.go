// Command burstd serves historical burstiness queries over HTTP — the
// repository's analogue of the estorm.org demo the paper references —
// while continuing to ingest the live stream.
//
// It opens a segment store — seeding a new one from a saved sketch, a
// dataset, or a generated demo stream — and exposes:
//
//	GET  /v1/burstiness?e=3&t=1700000&tau=86400
//	GET  /v1/times?e=3&theta=500&tau=86400
//	GET  /v1/events?t=1700000&theta=500&tau=86400
//	GET  /v1/top?t=1700000&k=5&tau=86400
//	GET  /v1/stats
//	POST /v1/append          {"elements":[{"event":3,"time":1700000}, …]}
//	GET  /healthz            liveness probe
//	GET  /readyz             readiness probe (503 while starting or draining)
//
// All /v1 responses are JSON; GET / serves an embedded single-page timeline
// UI (the estorm.org-style demo view).
//
// With -snapshots the server is crash-safe: the directory holds a segmented
// timeline store — immutable sketch segment files named by a CRC-checked
// manifest — and every checkpoint seals the in-memory head into it with an
// atomic manifest rewrite (-checkpoint cadence, plus a final seal on
// graceful shutdown). Startup recovers the manifest generation the last
// completed write left behind; crash debris is swept. The directory holds
// one format (docs/FORMATS.md), the same one `burstcli seal` writes; sketch
// flags (-k, -gamma, -seed) that contradict an existing store's manifest
// fail the boot. GET /v1/segments exposes the live segment directory.
//
// Between checkpoints, acknowledged appends are protected by a write-ahead
// log (-wal-sync selects the fsync policy; see the README durability
// table), a background scrubber re-verifies segment files and quarantines
// damaged ones (-scrub-interval), and a persistent disk fault flips the
// server read-only — appends answer 503 + Retry-After while queries keep
// serving — until the disk recovers. /healthz and /readyz report WAL lag,
// quarantine count, and the degraded state as JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"histburst/internal/segstore"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		wireAddr = flag.String("wire-addr", "", "HBP1 binary wire-protocol listen address (empty = disabled)")
		debug    = flag.String("debug-addr", "", "net/http/pprof listen address (empty = disabled)")
		sketch   = flag.String("sketch", "", "saved sketch from burstcli -save (skips building)")
		in       = flag.String("in", "", "dataset file from burstgen (default: generate a demo olympicrio stream)")
		n        = flag.Int64("n", 200_000, "demo stream size when no -in is given")
		k        = flag.Uint64("k", 0, "start with an empty detector over this event-id space (skips the demo stream)")
		gamma    = flag.Float64("gamma", 8, "PBE-2 error cap γ")
		seed     = flag.Int64("seed", 1, "workload / sketch seed")

		snapDir    = flag.String("snapshots", "", "store directory for checkpoints and crash recovery (empty = stateless)")
		checkpoint = flag.Duration("checkpoint", time.Minute, "checkpoint cadence when -snapshots is set (0 = only on shutdown)")
		sealEvents = flag.Int64("seal-events", 0, "elements per head segment before sealing (0 = default, negative = seal only at checkpoints)")
		fanout     = flag.Int("compact-fanout", 0, "segments merged per compaction (0 = default, negative = no compaction)")
		decayTiers = flag.String("decay-tiers", "", "time-decayed compaction ladder, ascending \"age:gamma:res[:w]\" tiers separated by commas (empty = keep full fidelity forever)")
		inflight   = flag.Int("max-inflight", 256, "concurrent /v1 requests before shedding with 503")
		maxSubs    = flag.Int("max-subscriptions", 1024, "armed standing queries before registrations are refused")
		alertQueue = flag.Int("alert-queue", 256, "per-subscriber alert queue capacity (overflow drops oldest)")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")

		walSync       = flag.String("wal-sync", "always", "write-ahead log fsync policy: always (fsync per commit), interval (background cadence), off (page cache only)")
		walSyncEvery  = flag.Duration("wal-sync-interval", segstore.DefaultWALSyncEvery, "fsync cadence under -wal-sync=interval")
		scrubInterval = flag.Duration("scrub-interval", time.Minute, "segment scrub cadence (negative = disabled)")
	)
	flag.Parse()

	walPolicy, err := segstore.ParseWALSyncPolicy(*walSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "burstd:", err)
		os.Exit(2)
	}
	tiers, err := parseDecayTiers(*decayTiers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "burstd:", err)
		os.Exit(2)
	}

	opts := serverOpts{
		Sketch: *sketch, In: *in, N: *n, K: *k, Gamma: *gamma, Seed: *seed,
		SnapDir: *snapDir, MaxInflight: *inflight,
		MaxSubs: *maxSubs, AlertQueue: *alertQueue,
		SealEvents: *sealEvents, Fanout: *fanout, DecayTiers: tiers,
		WALSync: walPolicy, WALSyncEvery: *walSyncEvery, ScrubInterval: *scrubInterval,
	}
	if err := run(*addr, *wireAddr, *debug, opts, *checkpoint, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "burstd:", err)
		os.Exit(1)
	}
}

// parseDecayTiers parses the -decay-tiers ladder: comma-separated
// "age:gamma:res[:w]" tiers in ascending age order, where age is the
// event-time distance behind the ingest frontier at which a sealed segment
// is re-summarized, gamma the widened PBE-2 error cap, res the coarsened
// time grid, and w (optional) the narrowed sketch width. Values of 0 defer
// to the store's tier-chaining defaults; full validation (ascending ages,
// width divisibility, γ floors) happens in segstore.Open.
func parseDecayTiers(spec string) ([]segstore.DecayTier, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var tiers []segstore.DecayTier
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("decay tier %q: want age:gamma:res[:w]", part)
		}
		age, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("decay tier %q: age: %w", part, err)
		}
		gamma, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("decay tier %q: gamma: %w", part, err)
		}
		res, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("decay tier %q: res: %w", part, err)
		}
		tier := segstore.DecayTier{Age: age, Gamma: gamma, Res: res}
		if len(fields) == 4 {
			w, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("decay tier %q: w: %w", part, err)
			}
			tier.W = w
		}
		tiers = append(tiers, tier)
	}
	return tiers, nil
}

// run owns the process lifecycle: the checkpoint ticker and the debug
// listener it spawns live until the signal context (stop) cancels and the
// process exits with it.
//
//histburst:worker stop
func run(addr, wireAddr, debugAddr string, opts serverOpts, checkpoint, drain time.Duration) error {
	srv, err := newServer(opts)
	if err != nil {
		return err
	}
	log.Printf("burstd: %d elements over [0, %d], %d segments at generation %d, %d bytes, listening on %s",
		srv.store.N(), srv.store.MaxTime(), len(srv.store.Segments()), srv.store.Generation(), srv.store.Bytes(), addr)

	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic checkpoints; no-op checkpoints (nothing appended) are
	// skipped inside.
	if srv.store.Dir() != "" && checkpoint > 0 {
		go func() {
			tick := time.NewTicker(checkpoint)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if name, err := srv.checkpoint(false); err != nil {
						log.Printf("burstd: checkpoint failed: %v", err)
					} else if name != "" {
						log.Printf("burstd: checkpointed to %s", name)
					}
				}
			}
		}()
	}

	// The HBP1 wire listener serves the same store alongside HTTP. Appends
	// ride the same ingest seam, so draining and degraded semantics match;
	// shutdown stops accepting at drain start and tears live connections
	// down only after the drain window, like the HTTP graceful shutdown.
	var ws *wireListener
	if wireAddr != "" {
		ws, err = listenWire(srv, wireAddr)
		if err != nil {
			return err
		}
		log.Printf("burstd: wire protocol (HBP1) listening on %s", ws.Addr())
	}

	// The debug listener exposes net/http/pprof privately for load-test
	// profiling; it never shares a mux with the public routes.
	if debugAddr != "" {
		go func() {
			log.Printf("burstd: debug (pprof) listening on %s", debugAddr)
			if err := http.ListenAndServe(debugAddr, debugHandler()); err != nil {
				log.Printf("burstd: debug listener: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		if ws != nil {
			ws.Close()
		}
		return err
	case <-ctx.Done():
	}
	log.Printf("burstd: shutting down (drain %s)", drain)
	srv.ready.Store(false) // readyz flips 503; new appends are refused
	// Shut alerting down before the HTTP drain: closing the hub unblocks
	// every SSE handler mid-Pop, so long-lived streams cannot stall the
	// graceful shutdown, and the webhook workers drain out.
	srv.closeAlerts()
	if ws != nil {
		// Stop accepting new wire connections; live ones keep serving
		// through the drain window so pending appends are answered with
		// NACK(draining) instead of a connection reset.
		ws.Drain()
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("burstd: drain incomplete: %v", err)
	}
	if ws != nil {
		ws.Close() // drain window over: drop the surviving wire connections
	}
	// Close seals the entire head and waits for the background workers —
	// the final checkpoint. For a stateless server this just stops the
	// store's goroutines.
	if err := srv.store.Close(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	if srv.store.Dir() != "" {
		log.Printf("burstd: final seal at generation %d", srv.store.Generation())
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
