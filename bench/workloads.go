package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"histburst"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
)

// workloadDef is one traffic mix. Every workload issues all four operations,
// so every end-to-end metric exists on every workload; what differs is the
// surface the operations go through, how the server is configured, and which
// operations carry the load.
//
// The server workloads are open loops at fixed rates well below capacity:
// their latencies are what a user sees at that load, and they repeat from run
// to run, which closed loops that saturate a two-core machine did not (20–50 %
// spread). What the server can take at most is measured too, by the
// closed-loop saturate phases of the traced run, and reported ungated.
type workloadDef struct {
	name string
	why  string
	// surface is "lib" (a histburst.Detector in this process), "wire" (HBP1
	// to a burstd child) or "http" (HTTP/JSON to a burstd child).
	surface string
	// serverArgs are the burstd flags beyond addresses and store directory.
	serverArgs []string
	phases     []phase
	// after is run by the traced run only, once the window is over and the
	// store has come to rest: reads on the layout the workload left behind.
	after []phase
	// subs arms the standing queries; plantEvery > 0 also injects a burst on
	// one of their ids that often, and each must raise an alert.
	subs       bool
	plantEvery int64
	// frozen says the store's sealed history never changes during the run, so
	// every retained answer must equal the in-process reference bit for bit.
	frozen bool
}

const (
	numSubs  = 64
	subTheta = 16
	subTau   = 3600
)

// ingestArgs is the configuration of a burstd that takes writes: fsync
// before every ack, default compaction, and two decay tiers that fold
// history older than one and three weeks of event time.
var ingestArgs = []string{"-wal-sync", "always", "-decay-tiers", "604800:16:60,1814400:32:600"}

var (
	pointOp  = op{kind: opPoint}
	timesOp  = op{kind: opTimes}
	eventsOp = op{kind: opEvents}
	append64 = op{kind: opAppend, n: 64}
)

// ingestReads is the read mix of wire_ingest: 1000 POINT frames/s on one
// connection, 100/s each of TIMES and EVENTS on the other.
var ingestReads = []flowSpec{{conn: 0, rate: 1000, pattern: []op{pointOp}}, {conn: 1, rate: 200, pattern: []op{timesOp, eventsOp}}}

func repeatOp(o op, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = o
	}
	return out
}

var workloads = []workloadDef{
	{
		name:    "lib_paper",
		why:     "in-process Detector build then queries (the paper's protocol), closed loop: only the sketch kernels work, so transport and store changes must show nothing",
		surface: "lib",
		phases: []phase{
			{share: 0.40, flows: []flowSpec{{pattern: []op{{kind: opAppend, n: 256}}}}},
			{share: 0.30, flows: []flowSpec{{pattern: []op{pointOp}}}},
			{share: 0.15, flows: []flowSpec{{pattern: []op{timesOp}}}},
			{share: 0.15, flows: []flowSpec{{pattern: []op{eventsOp}}}},
		},
	},
	{
		name:       "wire_query",
		why:        "reads over HBP1 on a frozen 12-segment layout, open loop at 2000 POINT frames/s then 300 scans/s: frame codec, worker pool and cross-segment fan-out; writes are a trickle",
		surface:    "wire",
		serverArgs: []string{"-wal-sync", "always", "-compact-fanout", "-1", "-seal-events", "-1"},
		frozen:     true,
		phases: []phase{
			{share: 0.5, flows: []flowSpec{{conn: 0, rate: 1000, pattern: []op{pointOp}}, {conn: 1, rate: 1000, pattern: []op{pointOp}}}},
			{share: 0.5, flows: []flowSpec{
				{conn: 0, rate: 100, pattern: []op{timesOp}},
				{conn: 1, rate: 200, pattern: []op{eventsOp}},
				// The write path sees a trickle, pipelined on the second
				// connection: enough for an ack latency, too little to seal
				// a segment or disturb the readers.
				{conn: 1, rate: 50, pattern: []op{append64}},
			}},
		},
	},
	{
		name:       "wire_ingest",
		why:        "durable ingest over HBP1 at 123k elem/s then 400 small appends/s, with compaction, decay and 64 standing queries armed: stager, WAL fsync, seal and commit hook work; reads only probe",
		surface:    "wire",
		serverArgs: ingestArgs,
		subs:       true,
		plantEvery: 100_000,
		phases: []phase{
			// Reads come first, while the layout is still the base store's:
			// which segments the compactor merges during ingest depends on
			// timing, and read latency on what it leaves differed by 35 %
			// between runs. The traced run measures those reads, ungated.
			{share: 0.2, flows: ingestReads},
			// 123 k elem/s is a fifth of what the server takes flat out:
			// seals, compactions and decays keep up with it, so how they
			// group segments depends less on timing.
			{share: 0.5, flows: []flowSpec{{conn: 0, rate: 30, pattern: []op{{kind: opBulk, n: 4096}}}}},
			{share: 0.3, flows: []flowSpec{{conn: 0, rate: 400, pattern: []op{{kind: opAppend, n: 256}}}}},
		},
		after: []phase{{share: 0.2, flows: ingestReads}},
	},
	{
		name:       "http_mixed",
		why:        "open loop at 400 ops/s over HTTP/JSON, reads beside ordered appends while seals and compactions republish the view: the only path through burstd's handlers, JSON codec and admission",
		surface:    "http",
		serverArgs: ingestArgs,
		subs:       true,
		phases: []phase{{share: 1, flows: []flowSpec{
			// 80 appends/s and 120 POINT/s on one connection, 160 POINT/s
			// and 20/s each of TIMES and EVENTS on the other.
			{conn: 0, rate: 200, pattern: []op{append64, pointOp, append64, pointOp, pointOp}},
			{conn: 1, rate: 200, pattern: append(repeatOp(pointOp, 8), timesOp, eventsOp)},
		}}},
	},
}

// saturate is the closed-loop pair of phases the traced run adds on a server
// workload: every connection asking POINT frames back to back, then one
// connection appending 4096-element batches back to back. They measure what
// the server can take at most.
var saturate = []phase{
	{flows: []flowSpec{{conn: 0, pattern: []op{pointOp}}, {conn: 1, pattern: []op{pointOp}}}},
	{flows: []flowSpec{{conn: 0, pattern: []op{{kind: opBulk, n: 4096}}}}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// options are the knobs of one run that do not depend on the workload.
type options struct {
	seed    int64
	window  time.Duration // the timed window
	warmup  time.Duration
	sz      sizes
	burstd  string // path of the burstd binary
	scratch string // directory this run may write under
	traceTo string // file a traced run leaves its spans in
}

// env is a set-up system ready for its timed window.
type env struct {
	w    workloadDef
	opt  options
	dir  string
	data *dataset
	run  *runner

	det      *histburst.Detector // lib surface: the detector queries run on
	srv      *child
	subConn  *wireTarget // connection holding the standing queries
	alerts   *alertLog
	baseDir  string // pristine base store (the reference of a frozen workload)
	storeDir string // the copy burstd serves

	restartMs []float64
}

// alertLog is what the subscriber connection received.
type alertLog struct {
	mu      sync.Mutex
	arrived map[uint64]time.Time // event id → first alert arrival
	gaps    uint64               // alerts the client queue dropped
	done    chan struct{}        // closed when the receiver has exited
}

// follow drains the client's alert queue until the client closes.
func (a *alertLog) follow(q *subscribe.Queue) {
	defer close(a.done)
	for {
		al, ok := q.Pop(nil)
		if !ok {
			return
		}
		now := time.Now()
		a.mu.Lock()
		if _, seen := a.arrived[al.Event]; !seen {
			a.arrived[al.Event] = now
		}
		a.gaps += al.Gap
		a.mu.Unlock()
	}
}

func (a *alertLog) arrival(id uint64) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.arrived[id]
	return t, ok
}

func (a *alertLog) count() (fired int, gaps uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.arrived), a.gaps
}

func subscribedID(i int) uint64 { return sketchK - numSubs + uint64(i) }

// wireReady reports whether the child answers a STATS frame.
func wireReady(c *child) error {
	t, err := dialWire(c.wireAddr)
	if err != nil {
		return err
	}
	defer t.close()
	_, err = t.c.Stats()
	return err
}

// httpReady reports whether the child is ready and answers /v1/stats.
func httpReady(c *child) error {
	t := newHTTPTarget(c.httpAddr)
	defer t.close()
	var v map[string]any
	if err := t.getJSON("/readyz", &v); err != nil {
		return err
	}
	return t.getJSON("/v1/stats", &v)
}

const (
	restartProbes = 5 // cold starts per set-up; the last one stays up
	startTimeout  = 20 * time.Second
)

// setUp builds everything the timed window needs, from the seed alone, and
// warms the system up. The caller owns the returned env and must tear it
// down.
func setUp(w workloadDef, opt options) (e *env, err error) {
	dir, err := os.MkdirTemp(opt.scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	e = &env{w: w, opt: opt, dir: dir}
	defer func() {
		if err != nil {
			e.tearDown()
		}
	}()
	if e.data, err = newDataset(opt.seed, opt.sz); err != nil {
		return nil, err
	}
	e.run = &runner{data: e.data, cont: e.data.continuation()}
	if w.plantEvery > 0 {
		ids := make([]uint64, numSubs)
		for i := range ids {
			ids[i] = subscribedID(i)
		}
		e.run.plan = &plan{ids: ids, every: w.plantEvery, next: w.plantEvery}
	}
	if w.surface == "lib" {
		err = e.setUpLib()
	} else {
		err = e.setUpServer()
	}
	if err != nil {
		return nil, err
	}
	// Warm-up: the workload's own mix, discarded.
	for _, ph := range w.phases {
		rec, _ := e.run.runPhase(ph.flows, time.Duration(ph.share*float64(opt.warmup)))
		if rec.failed > 0 {
			return nil, e.explain(fmt.Errorf("warm-up: %d of %d ops failed, first: %w", rec.failed, rec.attempted, rec.firstErr))
		}
	}
	return e, nil
}

func (e *env) explain(err error) error {
	if e.srv != nil {
		return e.srv.failure(err)
	}
	return err
}

func (e *env) setUpLib() error {
	build := func() (*histburst.Detector, error) {
		return histburst.New(sketchK, histburst.WithPBE2(sketchGamma))
	}
	det, err := build()
	if err != nil {
		return err
	}
	for _, el := range e.data.base {
		det.Append(el.Event, el.Time)
	}
	det.Finish()
	e.det = det
	// The library's cold start: load a saved detector, answer one query.
	saved := filepath.Join(e.dir, "detector.hbsk")
	if err := det.SaveFile(saved); err != nil {
		return err
	}
	q := e.data.points[0]
	for i := 0; i < 2*restartProbes+1; i++ {
		// Each load starts from a collected heap, as a fresh process would;
		// otherwise the garbage of the previous load decides when the
		// collector interrupts this one.
		runtime.GC()
		t0 := time.Now()
		loaded, err := histburst.LoadFile(saved)
		if err != nil {
			return err
		}
		if _, err := loaded.Burstiness(q.e, q.t, queryTau); err != nil {
			return err
		}
		e.restartMs = append(e.restartMs, micros(time.Since(t0))/1e3)
	}
	builder := &detectorTarget{fresh: build, limit: int64(len(e.data.base))}
	if builder.det, err = build(); err != nil {
		return err
	}
	// One target serves both roles: appends go to the detector under
	// construction, queries to the finished one.
	e.run.targets = []target{&libTarget{detectorTarget: detectorTarget{det: det}, builder: builder}}
	return nil
}

// libTarget queries the finished detector and appends to the one being
// built, which is how the paper separates construction from query cost.
type libTarget struct {
	detectorTarget
	builder *detectorTarget
}

func (l *libTarget) appendBatch(elems stream.Stream) (int64, int64, error) {
	return l.builder.appendBatch(elems)
}

func (e *env) setUpServer() error {
	e.baseDir = filepath.Join(e.dir, "base")
	e.storeDir = filepath.Join(e.dir, "store")
	if err := buildBaseStore(e.baseDir, e.data, e.opt.sz); err != nil {
		return err
	}
	if err := copyDir(e.baseDir, e.storeDir); err != nil {
		return err
	}
	if err := e.startServer(restartProbes); err != nil {
		return err
	}
	return e.connect()
}

// startServer cold-starts burstd on the store n times, timing each start to
// its first answer and killing all but the last.
func (e *env) startServer(n int) error {
	ready := wireReady
	if e.w.surface == "http" {
		ready = httpReady
	}
	for i := 0; i < n; i++ {
		if e.srv != nil {
			e.srv.kill()
			e.srv = nil
		}
		srv, took, err := startBurstd(e.opt.burstd, e.storeDir, filepath.Join(e.dir, "burstd.log"), e.w.serverArgs, ready, startTimeout)
		if err != nil {
			return err
		}
		e.srv = srv
		e.restartMs = append(e.restartMs, micros(took)/1e3)
	}
	return nil
}

// connect opens the workload's two connections and arms the standing
// queries; the goroutine following their alerts ends when tearDown closes
// the subscriber connection.
//
//histburst:worker tearDown
func (e *env) connect() error {
	for i := 0; i < 2; i++ {
		if e.w.surface == "http" {
			e.run.targets = append(e.run.targets, newHTTPTarget(e.srv.httpAddr))
			continue
		}
		t, err := dialWire(e.srv.wireAddr)
		if err != nil {
			return e.explain(err)
		}
		e.run.targets = append(e.run.targets, t)
	}
	if !e.w.subs {
		return nil
	}
	// Over HBP1 the standing queries share the canary's connection; the HTTP
	// workload holds them on a wire connection of the same burstd.
	if wt, ok := e.run.targets[1].(*wireTarget); ok {
		e.subConn = wt
	} else {
		t, err := dialWire(e.srv.wireAddr)
		if err != nil {
			return e.explain(err)
		}
		e.subConn = t
	}
	for i := 0; i < numSubs; i++ {
		_, err := e.subConn.c.Subscribe(subscribe.Subscription{Events: []uint64{subscribedID(i)}, Theta: subTheta, Tau: subTau})
		if err != nil {
			return e.explain(fmt.Errorf("subscribe: %w", err))
		}
	}
	e.alerts = &alertLog{arrived: make(map[uint64]time.Time), done: make(chan struct{})}
	go e.alerts.follow(e.subConn.c.Alerts())
	return nil
}

// tearDown stops everything set-up started and removes its files.
func (e *env) tearDown() {
	if e.run != nil {
		for _, t := range e.run.targets {
			t.close()
		}
	}
	if e.subConn != nil {
		e.subConn.close() // closing twice is harmless
		if e.alerts != nil {
			<-e.alerts.done
		}
	}
	if e.srv != nil {
		e.srv.kill()
	}
	os.RemoveAll(e.dir) //histburst:allow errdrop -- scratch; the parent directory is removed at exit too
}

// openReference opens the pristine base store in this process.
func (e *env) openReference() (*segstore.Store, error) {
	return segstore.Open(e.baseDir, segstore.Config{CompactFanout: -1, DisableWAL: true, ScrubInterval: -1})
}
