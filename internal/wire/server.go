package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"histburst/internal/binenc"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
)

// IngestResult is one append batch's outcome through the Backend seam. A
// zero Refused with a nil Err is an acknowledged batch; Refused names the
// NACK the client receives (with RetryAfter and Message riding along); Err
// is an internal failure that retrying cannot help.
type IngestResult struct {
	Appended   int64
	Rejected   int64
	Elements   int64 // store total after the batch
	OutOfOrder int64 // store lifetime rejection count

	Refused    NackCode // 0 = accepted
	RetryAfter time.Duration
	Message    string
	Err        error
}

// Backend is what a wire server fronts: burstd's server implements it over
// the same ingest seam its HTTP handlers use, and both transports answer
// queries on its snapshots through the Answer* functions, which is what
// keeps them semantically identical.
type Backend interface {
	// Snapshot returns the store view queries run against.
	Snapshot() *segstore.Snapshot
	// Ingest drives one append batch through the store (the group-commit
	// path), applying the same admission policy as the HTTP append handler.
	Ingest(elems stream.Stream) IngestResult
	// Stats answers STATS frames (burstd serves GET /v1/stats from it).
	Stats() Stats
	// Alerts returns the standing-query hub, or nil when alerting is
	// disabled — SUBSCRIBE frames are then refused.
	Alerts() *subscribe.Hub
}

// DefaultWindow is the append credit window advertised to each connection
// when the server does not override it: how many elements a client may have
// in flight (sent but not yet committed) before it must block.
const DefaultWindow = 1 << 16

// DefaultQueryWorkers bounds how many query frames one connection answers
// concurrently. Appends are always handled in arrival order regardless.
const DefaultQueryWorkers = 8

// Server serves HBP1 over accepted connections.
type Server struct {
	Backend Backend
	// Window is the per-connection append credit window in elements
	// (DefaultWindow when 0).
	Window int64
	Logf   func(format string, args ...any)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) window() int64 {
	if s.Window > 0 {
		return s.Window
	}
	return DefaultWindow
}

// track registers a live connection so Close can tear it down; it reports
// false when the server is already closed.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Serve accepts connections from l until it fails (or Close closes it),
// handling each on its own goroutine. Connection goroutines exit when the
// peer disconnects or Close tears every tracked connection down.
//
//histburst:worker Close
func (s *Server) Serve(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go func() {
			if err := s.ServeConn(c); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: connection %s: %v", c.RemoteAddr(), err)
			}
		}()
	}
}

// Drain marks the server as shutting down without touching live
// connections: new connections are refused (the caller closes the listener
// alongside, and Serve's accept error is swallowed), while established
// sessions keep serving so their pending appends are answered — typically
// with NACK(draining) once the backend refuses writes. Close later tears
// the survivors down.
func (s *Server) Drain() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Close tears down every live connection. The caller owns the listener.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close() //histburst:allow errdrop -- teardown; nothing to recover
	}
}

// ServeConn runs the HBP1 session on c until the peer disconnects or a
// framing error makes the stream unrecoverable. It returns io.EOF on a
// clean disconnect.
func (s *Server) ServeConn(c net.Conn) error {
	defer c.Close() //histburst:allow errdrop -- connection teardown; nothing to recover
	if !s.track(c) {
		return net.ErrClosed
	}
	defer s.untrack(c)

	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)

	// Handshake: magic + client version, answered with HELLO (and the
	// credit window it advertises) or a version NACK.
	var hs [len(Magic) + 4]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return fmt.Errorf("wire: handshake: %w", err)
	}
	if string(hs[:len(Magic)]) != Magic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFrame, hs[:len(Magic)])
	}
	ver := binary.LittleEndian.Uint32(hs[len(Magic):])
	if ver != Version {
		msg := fmt.Sprintf("unsupported protocol version %d (server speaks %d)", ver, Version)
		if err := writeFrame(bw, encodeNack(0, NackVersion, 0, msg, nil)); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return fmt.Errorf("wire: %s", msg)
	}
	st := s.Backend.Stats()
	hello := Hello{
		Version:  Version,
		Window:   s.window(),
		K:        st.EventSpace,
		Gamma:    s.Backend.Snapshot().Envelope(0).Gamma,
		MaxBatch: MaxBatchQueries,
	}
	if err := writeFrame(bw, encodeHello(hello)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	h := &connHandler{s: s, bw: bw, conn: c, sem: make(chan struct{}, DefaultQueryWorkers)}
	// Subscriptions are connection-scoped: whatever standing queries this
	// session registered die with it, and the alert pump drains out.
	defer h.closeAlerts()
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			// The stream died (disconnect or torn frame). Wait out the
			// in-flight queries, then flush: acks for batches already
			// committed still go out so the peer's acked-prefix bookkeeping
			// stays as complete as the transport allows.
			h.wg.Wait()
			h.wmu.Lock()
			bw.Flush() //histburst:allow errdrop -- best-effort flush on a dying connection
			h.wmu.Unlock()
			if werr := h.err(); werr != nil {
				return werr
			}
			if errors.Is(err, io.EOF) {
				return io.EOF
			}
			return err
		}
		buf = payload[:0]
		if len(payload) > 0 && isQueryFrame(payload[0]) {
			// Query frames run on a bounded worker pool and may answer in
			// any order — responses carry request ids, so the client
			// reassembles; only APPEND acks promise send order. A slow
			// bursty scan therefore no longer head-of-line blocks the point
			// queries pipelined behind it.
			h.dispatch(payload)
		} else if err := h.handle(payload); err != nil {
			return err
		}
		// Flush once the pipelined input drains and no worker still owes a
		// response: responses to a burst of frames share buffered writes,
		// while a lone request is answered immediately.
		if br.Buffered() == 0 && h.inflight.Load() == 0 {
			h.wmu.Lock()
			err := bw.Flush()
			h.wmu.Unlock()
			if err != nil {
				return err
			}
		}
		if err := h.err(); err != nil {
			return err
		}
	}
}

// isQueryFrame reports whether a frame kind is safe to answer out of order:
// read-only queries whose responses are matched by request id. APPEND is
// excluded (ack order is the acked-prefix contract), as is anything
// unknown (fatal, handled inline). Runs once per received frame.
//
//histburst:noalloc
func isQueryFrame(kind byte) bool {
	switch kind {
	case framePoint, frameTimes, frameEvents, frameTop, frameStats:
		return true
	}
	return false
}

// connHandler processes one connection's frames: appends sequentially on
// the read loop (their ack order is the durability contract), queries on a
// bounded worker pool sharing one write lock. Clients that pipeline a
// query behind an unacked append and want read-your-writes must await the
// ack first.
type connHandler struct {
	s    *Server
	bw   *bufio.Writer
	conn net.Conn

	wmu sync.Mutex // serializes frame writes and flushes
	sem chan struct{}
	wg  sync.WaitGroup
	//histburst:atomic
	inflight atomic.Int64

	emu  sync.Mutex // first worker error, reported by the read loop
	werr error

	// Alerting state, lazily built on the first SUBSCRIBE. The queue is
	// attached to the backend hub; the pump goroutine drains it into
	// unsolicited ALERT frames sharing wmu with every other writer. SUBSCRIBE
	// and UNSUBSCRIBE are handled inline on the read loop, so these fields
	// are only ever touched from there — amu exists for closeAlerts, which
	// runs on the same goroutine via defer but keeps the invariant explicit
	// for the pump join.
	amu  sync.Mutex
	aq   *subscribe.Queue    // guarded by amu
	subs map[uint64]struct{} // conn-owned subscription ids, guarded by amu
	awg  sync.WaitGroup      // joins the alert pump
}

// dispatch hands one query frame to the worker pool, blocking when the
// pool is saturated (backpressure onto the read loop). Workers are joined
// by wg, which the read loop waits on before the connection returns.
//
//histburst:worker wg
func (h *connHandler) dispatch(payload []byte) {
	p := append([]byte(nil), payload...) // the read loop reuses its buffer
	h.sem <- struct{}{}
	h.inflight.Add(1)
	h.wg.Add(1)
	go func() {
		defer func() {
			<-h.sem
			h.wg.Done()
		}()
		err := h.handle(p)
		if h.inflight.Add(-1) == 0 && err == nil {
			h.wmu.Lock()
			err = h.bw.Flush()
			h.wmu.Unlock()
		}
		if err != nil {
			h.fail(err)
		}
	}()
}

// fail records a worker's fatal error and tears the connection down so the
// read loop unblocks and reports it.
func (h *connHandler) fail(err error) {
	h.emu.Lock()
	if h.werr == nil {
		h.werr = err
	}
	h.emu.Unlock()
	h.conn.Close() //histburst:allow errdrop -- teardown on an already-failed connection
}

// err is polled by the read loop once per frame.
//
//histburst:noalloc
func (h *connHandler) err() error {
	h.emu.Lock()
	defer h.emu.Unlock()
	return h.werr
}

func (h *connHandler) send(payload []byte) error {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	return writeFrame(h.bw, payload)
}

// handle dispatches one decoded frame payload. Malformed payloads for known
// frame types answer with an ERR frame when the request id is recoverable
// and kill the connection otherwise; unknown frame types are always fatal
// (the stream cannot be trusted).
func (h *connHandler) handle(payload []byte) error {
	r := binenc.NewReader(payload)
	kind := r.Byte()
	id := r.Uvarint()
	if r.Err() != nil {
		return fmt.Errorf("%w: truncated frame preamble", ErrBadFrame)
	}
	switch kind {
	case frameAppend:
		return h.handleAppend(id, r)
	case framePoint:
		return h.handlePoint(id, r)
	case frameTimes:
		return h.handleTimes(id, r)
	case frameEvents:
		return h.handleEvents(id, r)
	case frameTop:
		return h.handleTop(id, r)
	case frameStats:
		return h.send(encodeStatsResp(id, h.s.Backend.Stats()))
	case frameSubscribe:
		return h.handleSubscribe(id, r)
	case frameUnsubscribe:
		return h.handleUnsubscribe(id, r)
	default:
		return fmt.Errorf("%w: unknown frame type 0x%02x", ErrBadFrame, kind)
	}
}

func (h *connHandler) handleAppend(id uint64, r *binenc.Reader) error {
	elems, err := decodeAppend(r)
	if err != nil {
		// The element count is unknown, so the consumed credits cannot be
		// returned; the stream is unrecoverable.
		return err
	}
	if len(elems) == 0 {
		return h.send(encodeErr(id, "empty batch"))
	}
	res := h.s.Backend.Ingest(elems)
	// Credits are returned whatever the outcome: a refused or failed batch
	// is not in flight anymore, and the client may retry it.
	grant := int64(len(elems))
	switch {
	case res.Refused != 0:
		// A refused writer learns the state of the history it cannot yet
		// extend: the store's envelope at its frontier, whole or not.
		sn := h.s.Backend.Snapshot()
		env := sn.Envelope(sn.MaxTime())
		if err := h.send(encodeNack(id, res.Refused, res.RetryAfter, res.Message, &env)); err != nil {
			return err
		}
	case res.Err != nil:
		if err := h.send(encodeNack(id, NackInternal, 0, res.Err.Error(), nil)); err != nil {
			return err
		}
	default:
		ack := AppendResult{
			Appended: res.Appended, Rejected: res.Rejected,
			Elements: res.Elements, OutOfOrder: res.OutOfOrder,
		}
		if err := h.send(encodeAppendAck(id, ack)); err != nil {
			return err
		}
	}
	return h.send(encodeCredit(grant))
}

// handleSubscribe registers a connection-scoped standing query. The first
// subscription lazily attaches this connection's alert queue to the hub and
// starts the pump that turns popped alerts into unsolicited ALERT frames.
// SUBSCRIBE runs inline on the read loop (not the query pool) so a
// subscription is armed before any append pipelined behind it commits.
//
//histburst:worker closeAlerts
func (h *connHandler) handleSubscribe(id uint64, r *binenc.Reader) error {
	sub, err := decodeSubscribeReq(r)
	if err != nil {
		return err
	}
	hub := h.s.Backend.Alerts()
	if hub == nil {
		return h.send(encodeErr(id, "alerting disabled"))
	}
	reg, err := hub.Register(sub)
	if err != nil {
		return h.send(encodeErr(id, err.Error()))
	}
	h.amu.Lock()
	if h.aq == nil {
		h.aq = hub.Attach(subscribe.ChannelWire, 0)
		h.subs = make(map[uint64]struct{})
		h.awg.Add(1)
		go h.pumpAlerts(h.aq)
	}
	h.subs[reg.ID] = struct{}{}
	h.amu.Unlock()
	hub.Watch(h.aq, reg.ID)
	return h.send(encodeSubResp(id, reg.ID, true))
}

// handleUnsubscribe cancels a standing query. Only ids this connection
// registered are honoured — a session cannot tear down another's
// subscriptions — and an unknown id answers ok=false rather than an error,
// matching DELETE /v1/subscriptions/{id}'s 404.
func (h *connHandler) handleUnsubscribe(id uint64, r *binenc.Reader) error {
	subID, err := decodeUnsubscribeReq(r)
	if err != nil {
		return err
	}
	hub := h.s.Backend.Alerts()
	if hub == nil {
		return h.send(encodeErr(id, "alerting disabled"))
	}
	h.amu.Lock()
	_, owned := h.subs[subID]
	if owned {
		delete(h.subs, subID)
	}
	aq := h.aq
	h.amu.Unlock()
	if !owned {
		return h.send(encodeSubResp(id, subID, false))
	}
	hub.Unwatch(aq, subID)
	hub.Unregister(subID)
	return h.send(encodeSubResp(id, subID, true))
}

// pumpAlerts drains the connection's alert queue into unsolicited ALERT
// frames. Each alert is flushed immediately — an alert held in a write
// buffer until the next query response is an alert that arrived late. The
// pump exits when the queue closes (closeAlerts or hub shutdown); a write
// failure tears the connection down like any worker error.
func (h *connHandler) pumpAlerts(q *subscribe.Queue) {
	defer h.awg.Done()
	for {
		a, ok := q.Pop(nil)
		if !ok {
			return
		}
		h.wmu.Lock()
		err := writeFrame(h.bw, encodeAlert(a))
		if err == nil {
			err = h.bw.Flush()
		}
		h.wmu.Unlock()
		if err != nil {
			h.fail(err)
			return
		}
	}
}

// closeAlerts unregisters every subscription this connection owns and
// detaches its queue, which closes it and lets the pump drain out. Runs on
// the connection's way down.
func (h *connHandler) closeAlerts() {
	h.amu.Lock()
	aq := h.aq
	subs := h.subs
	h.aq, h.subs = nil, nil
	h.amu.Unlock()
	if aq == nil {
		return
	}
	hub := h.s.Backend.Alerts()
	if hub != nil {
		for id := range subs {
			hub.Unregister(id)
		}
		hub.Detach(aq)
	}
	h.awg.Wait()
}

// orDefault maps a zero field to its default: HBP1 cannot say "absent".
func orDefault(v, def int64) int64 {
	if v == 0 {
		return def
	}
	return v
}

func (h *connHandler) handlePoint(id uint64, r *binenc.Reader) error {
	qs, err := decodePointReq(r)
	if err != nil {
		return err
	}
	for i := range qs {
		qs[i].Tau = orDefault(qs[i].Tau, DefaultTau)
	}
	results, err := AnswerPoint(h.s.Backend.Snapshot(), qs)
	if err != nil {
		return h.send(encodeErr(id, err.Error()))
	}
	return h.send(encodePointResp(id, results))
}

func (h *connHandler) handleTimes(id uint64, r *binenc.Reader) error {
	e, theta, tau, err := decodeTimesReq(r)
	if err != nil {
		return err
	}
	ranges, env, err := AnswerTimes(h.s.Backend.Snapshot(), e, theta, orDefault(tau, DefaultTau))
	if err != nil {
		return h.send(encodeErr(id, err.Error()))
	}
	return h.send(encodeTimesResp(id, ranges, env))
}

func (h *connHandler) handleEvents(id uint64, r *binenc.Reader) error {
	t, theta, tau, err := decodeEventsReq(r)
	if err != nil {
		return err
	}
	hits, env, err := AnswerEvents(h.s.Backend.Snapshot(), t, theta, orDefault(tau, DefaultTau))
	if err != nil {
		return h.send(encodeErr(id, err.Error()))
	}
	return h.send(encodeHits(frameEventsResp, id, hits, env))
}

func (h *connHandler) handleTop(id uint64, r *binenc.Reader) error {
	t, k, tau, err := decodeTopReq(r)
	if err != nil {
		return err
	}
	hits, env, err := AnswerTop(h.s.Backend.Snapshot(), t, orDefault(k, DefaultK), orDefault(tau, DefaultTau))
	if err != nil {
		return h.send(encodeErr(id, err.Error()))
	}
	return h.send(encodeHits(frameTopResp, id, hits, env))
}
