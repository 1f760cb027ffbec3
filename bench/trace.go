package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"histburst"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
	"histburst/internal/wire"
)

// span is one timed interval of one operation, at a layer boundary. Spans of
// one operation share Op; Parent is the span that caused this one (0 for the
// operation's root). A replay span was measured by repeating the operation's
// inner call right after the operation, on the same goroutine, because the
// real call sits behind a concrete type this benchmark cannot wrap; its
// interval therefore lies after its parent's, and only its duration is
// meaningful.
type span struct {
	Op     int32
	ID     int32
	Parent int32
	Name   string
	Start  int64 // ns since the trace began
	End    int64
	Replay bool
}

// tracer keeps spans in a preallocated slice and writes them out when the
// benchmark ends. When the slice is full, further spans are dropped and
// counted.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	n       int
	dropped int
	on      bool
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its id, or 0 when tracing is off or the
// buffer is full.
func (t *tracer) begin(op, parent int32, name string, replay bool) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	if t.n == len(t.spans) {
		t.dropped++
		return 0
	}
	t.n++
	t.spans[t.n-1] = span{Op: op, ID: int32(t.n), Parent: parent, Name: name, Replay: replay, Start: int64(time.Since(t.t0))}
	return int32(t.n)
}

func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[:t.n]
}

// selfTimes returns, for each span, its duration minus the durations of its
// direct children, never below zero. The children of one span never overlap
// in this benchmark — an operation runs on one goroutine at a time — so the
// sum of their durations is the part of the interval they cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	index := make(map[int32]int, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		index[s.ID] = i
	}
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok {
			self[p] -= s.End - s.Start
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// writeTrace writes the spans as one JSON array, one span per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n") //histburst:allow errdrop -- a bufio.Writer keeps its first error; Flush reports it
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"op":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"replay":%t}%s`+"\n",
			s.Op, s.ID, s.Parent, s.Name, s.Start, s.End, s.Replay, sep)
	}
	w.WriteString("]\n") //histburst:allow errdrop -- as above
	if err := w.Flush(); err != nil {
		f.Close() //histburst:allow errdrop -- the flush error is the one to report
		return err
	}
	return f.Close()
}

// stack is the serving path hosted in this process for the traced replay of
// a wire workload: store, stager and hub behind the repository's wire.Server,
// with this type as the Backend so the ingest seam can be wrapped in spans.
type stack struct {
	store  *segstore.Store
	stager *segstore.Stager
	hub    *subscribe.Hub
	srv    *wire.Server
	ln     net.Listener
	served chan struct{}
	tr     *tracer
	// cur is the append in flight, op<<32 | parent span: the replay has one
	// appender, so the server-side spans can be tied to it.
	cur    atomic.Int64
	commit atomic.Int32 // the open segstore.commit span, parent of the hook's
}

func (s *stack) Snapshot() *segstore.Snapshot { return s.store.Snapshot() }
func (s *stack) Alerts() *subscribe.Hub       { return s.hub }

func (s *stack) Stats() wire.Stats {
	sn := s.store.Snapshot()
	return wire.Stats{Elements: sn.N(), EventSpace: s.store.K(), MaxTime: sn.MaxTime(), Generation: sn.Generation()}
}

func (s *stack) Ingest(elems stream.Stream) wire.IngestResult {
	cur := s.cur.Load()
	id := s.tr.begin(int32(cur>>32), int32(cur), "segstore.commit", false)
	s.commit.Store(id)
	res := s.stager.Append(elems)
	s.tr.end(id)
	return wire.IngestResult{
		Appended: res.Appended, Rejected: res.Rejected, Err: res.Err,
		Elements: s.store.N(), OutOfOrder: s.store.Rejected(),
	}
}

// startStack opens a store on dir with the workload's lifecycle settings and
// serves it over HBP1 on a loopback port until stop.
//
//histburst:worker stop
func startStack(dir string, w workloadDef, tr *tracer) (*stack, error) {
	cfg := segstore.Config{WALSync: segstore.WALSyncAlways, ScrubInterval: -1}
	if w.frozen {
		cfg.CompactFanout, cfg.SealEvents = -1, -1
	} else {
		cfg.DecayTiers = []segstore.DecayTier{{Age: 604800, Gamma: 16, Res: 60}, {Age: 1814400, Gamma: 32, Res: 600}}
	}
	store, err := segstore.Open(dir, cfg)
	if err != nil {
		return nil, err
	}
	s := &stack{store: store, stager: segstore.NewStager(store), tr: tr, served: make(chan struct{})}
	s.hub = subscribe.NewHub(subscribe.Config{Fold: func(e uint64) uint64 { return e % store.K() }})
	if w.subs {
		for i := 0; i < numSubs; i++ {
			if _, err := s.hub.Register(subscribe.Subscription{Events: []uint64{subscribedID(i)}, Theta: subTheta, Tau: subTau}); err != nil {
				store.Close() //histburst:allow errdrop -- the registration error is the one to report
				return nil, err
			}
		}
	}
	s.stager.SetCommitHook(func(committed stream.Stream, _ int64) {
		cur := s.cur.Load()
		id := tr.begin(int32(cur>>32), s.commit.Load(), "subscribe.evaluate", false)
		s.hub.Evaluate(committed)
		tr.end(id)
	})
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		store.Close() //histburst:allow errdrop -- the listen error is the one to report
		return nil, err
	}
	s.srv = &wire.Server{Backend: s}
	go func() {
		s.srv.Serve(s.ln) //histburst:allow errdrop -- returns when stop closes the listener
		close(s.served)
	}()
	return s, nil
}

func (s *stack) stop() error {
	s.srv.Close()
	s.ln.Close() //histburst:allow errdrop -- Serve's exit is what matters
	<-s.served
	s.hub.Close()
	return s.store.Close()
}

// replayResult is what the traced replay of a workload's operations measured.
type replayResult struct {
	// rtt holds the duration of the primary call of every op, by kind, with
	// tracing off and on; the difference is what tracing costs.
	rttOff, rttOn [numKinds][]float64
	// bytes and units count what crossed the connection per kind and how
	// many queries or elements that carried; one goroutine, one op at a
	// time, so the ratio is exact and repeats.
	bytes, units [numKinds]int64
	failed       int64
	firstErr     error
}

// byteCounter is a target that knows how many bytes its connection moved.
type byteCounter interface{ bytesMoved() int64 }

func (w *wireTarget) bytesMoved() int64 { return w.moved.Load() }
func (h *httpTarget) bytesMoved() int64 { return h.moved.Load() }

// replay runs the workload's operation mix in a closed loop on one goroutine
// against tgt for d, untraced and traced in turn. reference answers the
// replayed segstore.query spans (nil on the library surface) and segs the
// per-segment histburst.query spans below them.
func replay(e *env, tgt target, layer string, reference target, segs []*histburst.Detector, tr *tracer, cur *atomic.Int64, d time.Duration) *replayResult {
	var pattern []op
	for _, ph := range e.w.phases {
		for _, f := range ph.flows {
			pattern = append(pattern, f.pattern...)
		}
	}
	res := &replayResult{}
	counter, counts := tgt.(byteCounter)
	answers := make([]float64, pointBatch)
	var batch stream.Stream
	run := e.run
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		// Whole cycles of the pattern alternate between untraced and
		// traced, so both see the same mix under the same conditions.
		traced := (i/len(pattern))%2 == 1
		tr.mu.Lock()
		tr.on = traced
		tr.mu.Unlock()
		rtts := &res.rttOff
		if traced {
			rtts = &res.rttOn
		}
		o := pattern[i%len(pattern)]
		opID := int32(i + 1)
		name := layer + ".rtt"
		if layer == "histburst" {
			name = "histburst.query"
			if o.kind == opAppend || o.kind == opBulk {
				name = "histburst.append"
			}
		}
		root := tr.begin(opID, 0, "op."+kindNames[o.kind], false)
		var (
			err    error
			t0, t1 time.Time
			call   int32
		)
		timed := func(fn func() error) {
			call = tr.begin(opID, root, name, false)
			if cur != nil {
				cur.Store(int64(opID)<<32 | int64(call))
			}
			var before int64
			if counts {
				before = counter.bytesMoved()
			}
			t0 = time.Now()
			err = fn()
			t1 = time.Now()
			tr.end(call)
			if counts {
				res.bytes[o.kind] += counter.bytesMoved() - before
			}
		}
		switch o.kind {
		case opPoint:
			idx := (i * pointBatch) % len(e.data.points)
			idx -= idx % pointBatch
			qs := e.data.points[idx : idx+pointBatch]
			timed(func() error { return tgt.point(qs, answers) })
			tr.end(root)
			if reference != nil && call != 0 {
				sq := tr.begin(opID, call, "segstore.query", true)
				reference.point(qs, answers) //histburst:allow errdrop -- a replay for timing; the real call's error is the one reported
				tr.end(sq)
				for _, det := range segs {
					hq := tr.begin(opID, sq, "histburst.query", true)
					for _, q := range qs {
						if det.MinTime() <= q.t {
							det.Burstiness(q.e, q.t, queryTau) //histburst:allow errdrop -- tau is a positive constant
						}
					}
					tr.end(hq)
				}
			}
		case opTimes:
			c := e.data.times[(i*queryStride)%len(e.data.times)]
			timed(func() error { _, err := tgt.times(c); return err })
			tr.end(root)
			if reference != nil && call != 0 {
				sq := tr.begin(opID, call, "segstore.query", true)
				reference.times(c) //histburst:allow errdrop -- a replay for timing
				tr.end(sq)
				for _, det := range segs {
					hq := tr.begin(opID, sq, "histburst.query", true)
					det.BurstyTimes(c.e, c.theta, queryTau) //histburst:allow errdrop -- tau is a positive constant
					tr.end(hq)
				}
			}
		case opEvents:
			c := e.data.events[(i*queryStride)%len(e.data.events)]
			timed(func() error { _, err := tgt.events(c); return err })
			tr.end(root)
			if reference != nil && call != 0 {
				sq := tr.begin(opID, call, "segstore.query", true)
				reference.events(c) //histburst:allow errdrop -- a replay for timing
				tr.end(sq)
				for _, det := range segs {
					if det.MinTime() > c.t || det.MaxTime() < c.t-2*queryTau {
						continue // outside the query's window: the store skips it too
					}
					hq := tr.begin(opID, sq, "histburst.query", true)
					det.BurstyEvents(c.t, c.theta, queryTau) //histburst:allow errdrop -- tau is a positive constant
					tr.end(hq)
				}
			}
		case opAppend, opBulk:
			if cap(batch) < o.n {
				batch = make(stream.Stream, o.n)
			}
			batch = batch[:o.n]
			run.fill(batch)
			timed(func() error {
				appended, rejected, err := tgt.appendBatch(batch)
				if err == nil && (rejected != 0 || appended != int64(o.n)) {
					err = fmt.Errorf("append of %d: %d appended, %d rejected", o.n, appended, rejected)
				}
				return err
			})
			tr.end(root)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("replay %s: %w", kindNames[o.kind], err)
			}
			continue
		}
		rtts[o.kind] = append(rtts[o.kind], micros(t1.Sub(t0)))
		switch o.kind {
		case opPoint:
			res.units[o.kind] += pointBatch
		case opAppend, opBulk:
			res.units[o.kind] += int64(o.n)
		}
	}
	return res
}

// traceCapacity bounds the span buffer: about 1.5 s of the densest replay.
const traceCapacity = 200_000

// traceFile is the name of the file a traced run leaves its spans in, under
// -scratch.
const traceFile = "bench-trace.json"

// spanStats folds the recorded spans into per-layer numbers: medians of
// durations and of parent-minus-child differences, in microseconds.
func spanStats(spans []span, layer string, out map[string]float64) {
	self := selfTimes(spans)
	byID := make(map[int32]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	// opOf names the operation a span belongs to by walking up to its root.
	opOf := func(s *span) string {
		for s.Parent != 0 && byID[s.Parent] != nil {
			s = byID[s.Parent]
		}
		return s.Name
	}
	var pointRTT, pointSelf, appendRTT, appendSelf, storeSelf []float64
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == layer+".rtt" && opOf(s) == "op.point":
			pointRTT = append(pointRTT, float64(s.End-s.Start)/1e3)
			pointSelf = append(pointSelf, float64(self[i])/1e3)
		case s.Name == layer+".rtt" && opOf(s) == "op.append":
			appendRTT = append(appendRTT, float64(s.End-s.Start)/1e3)
			appendSelf = append(appendSelf, float64(self[i])/1e3)
		case s.Name == "segstore.query" && opOf(s) == "op.point":
			storeSelf = append(storeSelf, float64(self[i])/pointBatch)
		}
	}
	switch layer {
	case "wire":
		out["wire.point_rtt_us"] = median(pointRTT)
		out["wire.point_self_us"] = median(pointSelf)
		out["wire.append_rtt_us"] = median(appendRTT)
		out["wire.append_self_us"] = median(appendSelf)
	case "burstd":
		out["burstd.http_point_rtt_us"] = median(pointRTT)
		out["burstd.http_point_self_us"] = median(pointSelf)
		out["burstd.http_append_rtt_us"] = median(appendRTT)
	}
	out["segstore.point_self_ns"] = median(storeSelf)
}

// tracedReplay hosts or reaches the workload's serving path, replays its
// operations with spans, writes the trace and folds it into out.
func tracedReplay(e *env, d time.Duration, out map[string]float64) error {
	tr := newTracer(traceCapacity)
	var (
		res   *replayResult
		layer string
	)
	switch e.w.surface {
	case "lib":
		layer = "histburst"
		res = replay(e, e.run.targets[0], layer, nil, nil, tr, nil, d)
	case "wire":
		layer = "wire"
		segs, err := loadSegments(e.baseDir)
		if err != nil {
			return err
		}
		dir := filepath.Join(e.dir, "replay")
		if err := copyDir(e.baseDir, dir); err != nil {
			return err
		}
		st, err := startStack(dir, e.w, tr)
		if err != nil {
			return err
		}
		tgt, err := dialWire(st.ln.Addr().String())
		if err != nil {
			st.stop() //histburst:allow errdrop -- the dial error is the one to report
			return err
		}
		// The replay appends its own continuation, past anything the real
		// run sent, so the fresh store accepts it in order.
		res = replay(e, tgt, layer, snapshotTarget{store: st.store}, segs, tr, &st.cur, d)
		tgt.close()
		if err := st.stop(); err != nil {
			return err
		}
	case "http":
		// cmd/burstd is package main: its root span is the HTTP round trip
		// to the child, with the same replayed children.
		layer = "burstd"
		segs, err := loadSegments(e.baseDir)
		if err != nil {
			return err
		}
		ref, err := e.openReference()
		if err != nil {
			return err
		}
		defer ref.Close()
		res = replay(e, e.run.targets[0], layer, snapshotTarget{store: ref}, segs, tr, nil, d)
		// These appends went to the live child: it must still hold them
		// after the SIGKILL check.
		e.run.ackedTotal += res.units[opAppend] + res.units[opBulk]
		if n := res.units[opPoint]; n > 0 {
			out["burstd.http_bytes_per_point_query"] = float64(res.bytes[opPoint]) / float64(n)
		}
	}
	if layer == "wire" {
		if n := res.units[opPoint]; n > 0 {
			out["wire.bytes_per_point_query"] = float64(res.bytes[opPoint]) / float64(n)
		}
		if n := res.units[opAppend] + res.units[opBulk]; n > 0 {
			out["wire.bytes_per_elem"] = float64(res.bytes[opAppend]+res.bytes[opBulk]) / float64(n)
		}
	}
	if res.firstErr != nil {
		return fmt.Errorf("%d replayed ops failed, first: %w", res.failed, res.firstErr)
	}
	spans := tr.recorded()
	spanStats(spans, layer, out)
	var off, on, nOff, nOn float64
	for k := range res.rttOff {
		for _, v := range res.rttOff[k] {
			off, nOff = off+v, nOff+1
		}
		for _, v := range res.rttOn[k] {
			on, nOn = on+v, nOn+1
		}
	}
	if nOff > 0 && nOn > 0 && off > 0 {
		out["bench.trace_overhead_pct"] = 100 * (on/nOn - off/nOff) / (off / nOff)
	}
	out["bench.trace_spans"] = float64(len(spans))
	out["bench.trace_dropped"] = float64(tr.dropped)
	return writeTrace(e.opt.traceTo, spans)
}
