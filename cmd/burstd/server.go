package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"histburst"
	"histburst/internal/pbe"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/wire"
	"histburst/internal/workload"
)

// serverOpts collects everything newServer needs; the zero value is a
// stateless demo server.
type serverOpts struct {
	Sketch string  // saved sketch file (skips building)
	In     string  // dataset file from burstgen
	N      int64   // demo stream size when no -in is given
	K      uint64  // when > 0: start empty with this event-id space
	Gamma  float64 // PBE-2 error cap γ
	Seed   int64   // workload / sketch seed

	SnapDir     string               // store directory ("" = stateless)
	SealEvents  int64                // head seal threshold (0 = store default)
	Fanout      int                  // compaction fanout (0 = store default)
	DecayTiers  []segstore.DecayTier // time-decayed compaction ladder (nil = full fidelity forever)
	MaxInflight int                  // concurrent /v1 requests before shedding
	MaxSubs     int                  // armed standing queries cap (0 = subscribe default)
	AlertQueue  int                  // per-subscriber alert queue capacity (0 = default)

	WALSync       segstore.WALSyncPolicy // when the WAL fsyncs
	WALSyncEvery  time.Duration          // fsync cadence under the interval policy
	ScrubInterval time.Duration          // segment scrub cadence (0 = store default)

	Logf func(format string, args ...any)
}

// server fronts a segmented timeline store. Query handlers take a snapshot
// — one atomic pointer load — and run lock-free against it; ingest appends
// into the store's head, and checkpoints defer to the store's own
// manifest-backed durability.
type server struct {
	store  *segstore.Store
	stager *segstore.Stager // sharded ingest front end for /v1/append

	// append is the ingest seam: stager.Append in production, swappable in
	// tests to inject disk faults into the degraded-mode machinery.
	append func(stream.Stream) segstore.BatchResult

	// alerts is the standing-query subsystem: the hub hangs off the
	// stager's commit hook and fans fired alerts out to SSE, webhook, and
	// wire subscribers (see alerts.go).
	alerts alerting

	//histburst:atomic
	dirty atomic.Bool // appends since the last checkpoint
	//histburst:atomic
	ready atomic.Bool
	// readOnly flips when the write path hits a persistent disk fault
	// (ENOSPC/EIO survived the retry budget): appends answer 503 +
	// Retry-After while queries keep serving, and a background prober
	// flips it back once the WAL syncs again.
	//
	//histburst:atomic
	readOnly atomic.Bool
	//histburst:atomic
	probing    atomic.Bool   // one prober at a time
	probeEvery time.Duration // prober cadence (tests shrink it)
	inflight   chan struct{}
	// retryHint is the Retry-After duration (nanoseconds) shed and degraded
	// responses advertise, derived from appendWithRetry's live backoff state
	// instead of a hardcoded constant: it tracks the backoff the write path
	// is actually experiencing and resets once appends succeed again.
	//
	//histburst:atomic
	retryHint atomic.Int64
	logf      func(format string, args ...any)
}

// newServer opens the store directory — recovering from its manifest when
// one exists, creating it otherwise — and seeds a new store from -sketch,
// -in or the demo stream. An existing store is served as its manifest
// describes it: the seed flags are not consulted, and sketch flags that
// contradict the manifest fail the open.
func newServer(o serverOpts) (*server, error) {
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	s := &server{
		inflight:   make(chan struct{}, o.MaxInflight),
		probeEvery: time.Second,
		logf:       o.Logf,
	}
	s.retryHint.Store(int64(time.Second))

	cfg := segstore.Config{
		K: o.K, Gamma: o.Gamma, Seed: o.Seed,
		SealEvents: o.SealEvents, CompactFanout: o.Fanout,
		DecayTiers: o.DecayTiers,
		WALSync:    o.WALSync, WALSyncEvery: o.WALSyncEvery,
		ScrubInterval: o.ScrubInterval, Logf: o.Logf,
	}
	exists := false
	if o.SnapDir != "" {
		_, err := os.Stat(filepath.Join(o.SnapDir, segstore.ManifestName))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		exists = err == nil
	}
	var seed *histburst.Detector
	if !exists {
		var err error
		if seed, err = seedDetector(o); err != nil {
			return nil, err
		}
	}
	if seed != nil {
		p := seed.Params()
		cfg.K, cfg.Gamma, cfg.Seed = p.K, p.Gamma, p.Seed
		cfg.D, cfg.W = p.D, p.W
	}
	st, err := segstore.Open(o.SnapDir, cfg)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if seed != nil && seed.N() > 0 {
		if err := st.Bootstrap(seed); err != nil {
			return nil, fmt.Errorf("bootstrap: %w", err)
		}
	}
	s.store = st
	s.stager = segstore.NewStager(st)
	s.append = s.stager.Append
	s.initAlerts(o.MaxSubs, o.AlertQueue)
	if exists {
		if h := st.Health(); h.Quarantined > 0 {
			s.logf("burstd: %d segments in quarantine (%d elements of history missing)",
				h.Quarantined, h.QuarantinedElements)
		}
		s.logf("burstd: recovered store generation %d (%d elements, %d segments)",
			st.Generation(), st.N(), len(st.Segments()))
	}
	s.ready.Store(true)
	return s, nil
}

// seedDetector produces the detector a new store is bootstrapped from, or
// nil for an empty (-k) start. Precedence: saved sketch, dataset file, demo
// stream.
func seedDetector(o serverOpts) (*histburst.Detector, error) {
	if o.Sketch != "" {
		return histburst.LoadFile(o.Sketch)
	}
	if o.K > 0 {
		return nil, nil
	}
	var data stream.Stream
	var err error
	if o.In != "" {
		data, err = stream.ReadFile(o.In)
	} else {
		data, err = workload.Generate(workload.OlympicRioSpec(o.Seed, o.N))
	}
	if err != nil {
		return nil, err
	}
	k := uint64(1)
	for _, el := range data {
		if el.Event+1 > k {
			k = el.Event + 1
		}
	}
	det, err := histburst.New(k, histburst.WithPBE2(o.Gamma), histburst.WithSeed(o.Seed))
	if err != nil {
		return nil, err
	}
	for _, el := range data {
		det.Append(el.Event, el.Time)
	}
	det.Finish()
	return det, nil
}

// handler assembles the full middleware stack: panic recovery outermost,
// then per-route registration. Query and ingest routes sit behind the
// load-shedding semaphore; health probes never shed.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	limited := func(h http.HandlerFunc) http.Handler { return s.limit(h) }
	mux.Handle("GET /v1/burstiness", limited(s.handleBurstiness))
	mux.Handle("GET /v1/times", limited(s.handleTimes))
	mux.Handle("GET /v1/events", limited(s.handleEvents))
	mux.Handle("GET /v1/top", limited(s.handleTop))
	mux.Handle("GET /v1/stats", limited(s.handleStats))
	mux.Handle("GET /v1/segments", limited(s.handleSegments))
	mux.Handle("POST /v1/query/batch", limited(s.handleQueryBatch))
	mux.Handle("POST /v1/append", limited(s.handleAppend))
	mux.Handle("POST /v1/subscriptions", limited(s.handleSubscribe))
	mux.Handle("GET /v1/subscriptions", limited(s.handleSubscriptionsList))
	mux.Handle("DELETE /v1/subscriptions/{id}", limited(s.handleUnsubscribe))
	// The alert stream is long-lived and must not pin an inflight slot; its
	// bounded per-subscriber queue already caps what a stream can cost.
	mux.HandleFunc("GET /v1/alerts/stream", s.handleAlertStream)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /{$}", s.handleUI)
	return s.recoverPanics(mux)
}

// recoverPanics turns a handler panic into a 500 instead of tearing down
// the whole connection (and, under http.Serve, killing nothing else — but
// the stack trace would be lost in the noise).
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.logf("burstd: panic serving %s %s: %v", r.Method, r.URL.Path, v)
				httpError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// limit sheds load once MaxInflight requests are already in flight,
// answering 503 with a Retry-After hint instead of queueing unboundedly.
func (s *server) limit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", retryAfterSeconds(s.retryAfter()))
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server overloaded"))
		}
	})
}

// retryAfter is the current Retry-After hint: the write path's live backoff,
// never below one second.
func (s *server) retryAfter() time.Duration {
	d := time.Duration(s.retryHint.Load())
	if d < time.Second {
		d = time.Second
	}
	return d
}

// retryAfterSeconds renders a hint for the HTTP Retry-After header,
// rounding partial seconds up (the header speaks whole seconds).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	return strconv.FormatInt(secs, 10)
}

// healthBody is the shared health surface of /healthz and /readyz: store
// self-diagnosis (WAL lag, quarantine count, scrub state) plus the serving
// flags.
func (s *server) healthBody(status string) map[string]any {
	h := s.store.Health()
	sn := s.store.Snapshot()
	return map[string]any{
		"status":   status,
		"ready":    s.ready.Load(),
		"readOnly": s.readOnly.Load(),
		"store":    h,
		// Counted against held: bytes is what the resident summaries say
		// they hold (segment payload; cold segments count their file
		// bytes), heap_alloc_bytes what the process really keeps alive.
		"bytes":            sn.Bytes(),
		"heap_alloc_bytes": heapAllocBytes(),
		"segments":         map[string]int{"total": len(sn.Segments()), "resident": sn.Resident()},
		"tiers":            sn.Tiers(),
		"alerts":           s.alerts.hub.Stats(),
	}
}

// heapAllocBytes is the live Go heap (runtime.MemStats.HeapAlloc, without
// the stop-the-world that reading MemStats costs).
func heapAllocBytes() uint64 {
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// handleHealthz is the liveness probe: always 200 while the process serves
// (queries keep working even degraded), with the health detail in the body.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.readOnly.Load() || s.store.Health().Quarantined > 0 {
		status = "degraded"
	}
	writeJSON(w, s.healthBody(status))
}

// handleReadyz is the readiness probe. 503 while starting or draining (as
// before) and also while the store cannot accept writes — read-only after
// a disk fault, or while its last seal or compaction step failed (until a
// step of that kind succeeds) — so load balancers stop routing ingest here.
// The body always carries the full health detail (quarantine count, WAL
// lag) either way.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ready.Load():
		writeStatus(w, http.StatusServiceUnavailable, s.healthBody("not ready"))
	case s.readOnly.Load():
		writeStatus(w, http.StatusServiceUnavailable, s.healthBody("read-only"))
	case s.store.Err() != nil:
		writeStatus(w, http.StatusServiceUnavailable, s.healthBody("store error"))
	default:
		writeJSON(w, s.healthBody("ready"))
	}
}

// appendRequest is the /v1/append body: a batch of (event, time) elements.
// Elements are applied in order; the store refuses timestamps behind its
// frontier (unlike the old clamping detector), so each rejected element is
// counted and skipped rather than failing the batch.
type appendRequest struct {
	Elements []appendElement `json:"elements"`
}

type appendElement struct {
	Event uint64 `json:"event"`
	Time  int64  `json:"time"`
}

// maxAppendBody bounds an ingest request body: the heap guard in front of
// the JSON decoder, ~8 MB, beyond any batch within wire.MaxAppendElems.
const maxAppendBody = 8 << 20

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	body := http.MaxBytesReader(w, r.Body, maxAppendBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if err := wire.CheckAppendLen(uint64(len(req.Elements))); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	elems := make(stream.Stream, len(req.Elements))
	for i, el := range req.Elements {
		elems[i] = stream.Element{Event: el.Event, Time: el.Time}
	}
	// The ingest seam applies the shared admission policy (draining,
	// read-only, retry/degrade) for both this handler and the wire
	// transport; here its verdict, hint included, is mapped back onto HTTP
	// status codes, as the wire maps it onto a NACK.
	res := s.ingest(elems)
	switch {
	case res.Refused != 0:
		// Like the NACK, the body carries the store's envelope at its frontier.
		sn := s.store.Snapshot()
		w.Header().Set("Retry-After", retryAfterSeconds(res.RetryAfter))
		writeStatus(w, http.StatusServiceUnavailable, map[string]any{"error": res.Message, "envelope": sn.Envelope(sn.MaxTime())})
	case res.Err != nil:
		httpError(w, http.StatusInternalServerError, res.Err)
	default:
		writeJSON(w, map[string]any{
			"appended": res.Appended, "rejected": res.Rejected,
			"elements": res.Elements, "outOfOrder": res.OutOfOrder,
		})
	}
}

// ingest drives one decoded batch through the admission policy shared by
// the HTTP append handler and the wire transport: refuse while draining or
// read-only, retry disk faults with backoff, degrade on a persistent fault.
// Keeping both transports on this one seam is what makes their semantics
// identical by construction.
func (s *server) ingest(elems stream.Stream) wire.IngestResult {
	if !s.ready.Load() {
		return wire.IngestResult{
			Refused: wire.NackDraining, RetryAfter: s.retryAfter(),
			Message: "shutting down",
		}
	}
	if s.readOnly.Load() {
		return wire.IngestResult{
			Refused: wire.NackReadOnly, RetryAfter: s.retryAfter(),
			Message: "store is read-only after a disk fault; queries keep serving",
		}
	}
	// The stager shards staging across CPUs and group-commits staged batches
	// into the head in timestamp order, so concurrent ingest requests no
	// longer serialize on one head mutex per element.
	res := s.appendWithRetry(elems)
	if res.Err != nil {
		if isDiskFault(res.Err) {
			s.enterReadOnly(res.Err)
			return wire.IngestResult{
				Refused: wire.NackReadOnly, RetryAfter: s.retryAfter(),
				Message: fmt.Sprintf("store is read-only after a disk fault: %v", res.Err),
			}
		}
		return wire.IngestResult{Err: res.Err}
	}
	if res.Appended > 0 {
		s.dirty.Store(true)
	}
	return wire.IngestResult{
		Appended: res.Appended, Rejected: res.Rejected,
		Elements: s.store.N(), OutOfOrder: s.store.Rejected(),
	}
}

// appendWithRetry drives one batch through the append func, retrying disk
// faults with capped exponential backoff — a filling disk is often a
// transient (log rotation racing a cleanup); only a fault that survives
// the whole budget degrades the server. The backoff it experiences feeds
// the server's Retry-After hint: a success resets the hint to the floor,
// each retry raises it to the sleep it is about to take, and giving up
// leaves it at the next (unslept) rung — the server's best estimate of how
// long a client should wait before trying again.
func (s *server) appendWithRetry(elems stream.Stream) segstore.BatchResult {
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		res := s.append(elems)
		if res.Err == nil {
			s.retryHint.Store(int64(time.Second))
			return res
		}
		if !isDiskFault(res.Err) {
			return res
		}
		s.retryHint.Store(int64(backoff))
		if attempt == 3 {
			return res
		}
		s.logf("burstd: append hit a disk fault (attempt %d, retrying in %s): %v", attempt+1, backoff, res.Err)
		time.Sleep(backoff)
		backoff *= 4
	}
}

// isDiskFault reports whether err is the kind of environmental disk
// failure degraded mode exists for — out of space or I/O error — as
// opposed to a logic error that retrying cannot help.
func isDiskFault(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO)
}

// enterReadOnly flips the server read-only and starts the recovery prober:
// a goroutine that periodically asks the store to sync its WAL, and
// restores write service on the first success. Queries are untouched. The
// prober exits on recovery or when ready flips false at drain; the probing
// flag guarantees at most one is live.
//
//histburst:worker probing
func (s *server) enterReadOnly(cause error) {
	if s.readOnly.Swap(true) {
		return // already degraded; the running prober owns recovery
	}
	s.logf("burstd: entering read-only mode (appends 503, queries serving): %v", cause)
	if s.probing.Swap(true) {
		return
	}
	go func() {
		defer s.probing.Store(false)
		tick := time.NewTicker(s.probeEvery)
		defer tick.Stop()
		for range tick.C {
			if !s.ready.Load() {
				return // draining; stay read-only to the end
			}
			if err := s.store.SyncWAL(); err != nil {
				continue
			}
			s.readOnly.Store(false)
			s.logf("burstd: disk recovered; leaving read-only mode")
			return
		}
	}()
}

// checkpoint makes everything ingested so far durable by sealing the head
// into the manifest-referenced segment directory. Periodic calls (force
// false) skip when nothing was appended since the last one and leave the
// frontier timestamp's elements in memory so sealed boundaries stay
// compactable; force seals the entire head (shutdown). A failed one leaves
// the heads frozen, so the next periodic call retries it even with no
// appends since — that retry is what clears the store error /readyz reports.
// The returned name describes what became durable ("" for a skipped no-op).
func (s *server) checkpoint(force bool) (string, error) {
	if !s.dirty.Swap(false) && !force {
		return "", nil
	}
	before := s.store.Generation()
	if err := s.store.Checkpoint(force); err != nil {
		s.dirty.Store(true)
		return "", err
	}
	after := s.store.Generation()
	if after == before {
		return "", nil
	}
	return fmt.Sprintf("generation %d", after), nil
}

// The query handlers are codecs over wire's Answer* functions, which own
// the validation, the BURSTY-EVENTS scoring and the envelope rule: each
// parses its parameters, substitutes the default only for an absent one
// (an explicit tau=0 or k=0 is the caller's error), answers against one
// snapshot and encodes the result.

func (s *server) handleBurstiness(w http.ResponseWriter, r *http.Request) {
	e, err1 := param(r, "e", parseUint)
	t, err2 := param(r, "t", parseInt)
	tau, err3 := param(r, "tau", parseInt, wire.DefaultTau)
	if err := cmp.Or(err1, err2, err3); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, err := wire.AnswerPoint(s.store.Snapshot(), []wire.PointQuery{{Event: e, T: t, Tau: tau}})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	reply(w, map[string]any{"event": e, "t": t, "tau": tau, "burstiness": res[0].Burstiness}, res[0].Envelope, nil)
}

func (s *server) handleTimes(w http.ResponseWriter, r *http.Request) {
	e, err1 := param(r, "e", parseUint)
	theta, err2 := param(r, "theta", parseFloat)
	tau, err3 := param(r, "tau", parseInt, wire.DefaultTau)
	if err := cmp.Or(err1, err2, err3); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ranges, env, err := wire.AnswerTimes(s.store.Snapshot(), e, theta, tau)
	reply(w, map[string]any{"event": e, "theta": theta, "tau": tau, "ranges": ranges}, env, err)
}

func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	t, err1 := param(r, "t", parseInt)
	theta, err2 := param(r, "theta", parseFloat)
	tau, err3 := param(r, "tau", parseInt, wire.DefaultTau)
	if err := cmp.Or(err1, err2, err3); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	hits, env, err := wire.AnswerEvents(s.store.Snapshot(), t, theta, tau)
	reply(w, map[string]any{"t": t, "theta": theta, "tau": tau, "events": hits}, env, err)
}

func (s *server) handleTop(w http.ResponseWriter, r *http.Request) {
	t, err1 := param(r, "t", parseInt)
	k, err2 := param(r, "k", parseInt, wire.DefaultK)
	tau, err3 := param(r, "tau", parseInt, wire.DefaultTau)
	if err := cmp.Or(err1, err2, err3); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	hits, env, err := wire.AnswerTop(s.store.Snapshot(), t, k, tau)
	reply(w, map[string]any{"t": t, "k": k, "tau": tau, "events": hits}, env, err)
}

// Batch point queries: POST /v1/query/batch answers many point queries
// against ONE store snapshot, so a batch costs one atomic view load and one
// JSON body instead of one of each per query, and the whole batch sees one
// consistent generation while ingest, sealing and compaction continue. Its
// semantics are the HBP1 POINT frame's, an omitted (or zero) tau included.
func (s *server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Queries []wire.PointQuery `json:"queries"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAppendBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	for i := range req.Queries {
		if req.Queries[i].Tau == 0 {
			req.Queries[i].Tau = wire.DefaultTau
		}
	}
	res, err := wire.AnswerPoint(s.store.Snapshot(), req.Queries)
	// Each result echoes its query beside the answer.
	type result struct {
		wire.PointQuery
		wire.PointResult
	}
	results := make([]result, len(res))
	for i := range res {
		results[i] = result{req.Queries[i], res[i]}
	}
	reply(w, map[string]any{"results": results}, nil, err)
}

// handleStats reports the STATS frame's fields (see Stats) beside what only
// HTTP carries: the WAL, the head and the alerting counters.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		wire.Stats
		WAL    any `json:"wal"`
		Head   any `json:"head"`
		Alerts any `json:"alerts"`
	}{s.Stats(), s.store.Health().WAL, s.store.Snapshot().Head(), s.alerts.hub.Stats()})
}

// handleSegments serves the segment directory: one record per sealed
// segment in time order, the quarantined segments (history removed from
// service for damage), and the in-memory head — the introspection view of
// the store's lifecycle and health.
func (s *server) handleSegments(w http.ResponseWriter, r *http.Request) {
	sn := s.store.Snapshot()
	h := s.store.Health()
	writeJSON(w, map[string]any{
		"generation":  sn.Generation(),
		"segments":    sn.Segments(),
		"tiers":       sn.Tiers(),
		"quarantined": sn.Quarantined(),
		"wal":         h.WAL,
		"readOnly":    s.readOnly.Load(),
		"envelope":    sn.Envelope(sn.MaxTime()),
		"head":        sn.Head(),
		"alerts":      s.alerts.hub.Stats(),
	})
}

func writeJSON(w http.ResponseWriter, v any) { writeStatus(w, http.StatusOK, v) }

// writeStatus writes v as the JSON body of a code response.
func writeStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("burstd: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeStatus(w, code, map[string]string{"error": err.Error()})
}

// reply encodes a query's answer with the envelope it carries (non-nil
// only on a degraded history), or the answer's error as a 400.
func reply(w http.ResponseWriter, resp map[string]any, env *pbe.ErrorEnvelope, err error) {
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if env != nil {
		resp["envelope"] = env
	}
	writeJSON(w, resp)
}

// param parses query parameter name; an absent one is an error unless a
// default stands in for it.
func param[T any](r *http.Request, name string, parse func(string) (T, error), def ...T) (T, error) {
	if v := r.URL.Query().Get(name); v != "" {
		return parse(v)
	}
	if len(def) > 0 {
		return def[0], nil
	}
	var zero T
	return zero, fmt.Errorf("missing parameter %q", name)
}

func parseUint(v string) (uint64, error)   { return strconv.ParseUint(v, 10, 64) }
func parseInt(v string) (int64, error)     { return strconv.ParseInt(v, 10, 64) }
func parseFloat(v string) (float64, error) { return strconv.ParseFloat(v, 64) }
