package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"histburst"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/wire"
)

// target is one client's way to issue the four operations of the system:
// a connection for the server workloads, a detector or a store snapshot for
// the in-process ones. A target is used by one goroutine at a time.
type target interface {
	// point answers len(qs) POINT queries into out.
	point(qs []pointCase, out []float64) error
	times(c timesCase) ([]histburst.TimeRange, error)
	// events returns the bursty event ids ascending.
	events(c eventsCase) ([]uint64, error)
	// appendBatch returns once the batch is acknowledged — durably, where the
	// surface has durability.
	appendBatch(elems stream.Stream) (appended, rejected int64, err error)
	close()
}

// countingConn counts the bytes a connection moves in both directions.
type countingConn struct {
	net.Conn
	moved *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.moved.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.moved.Add(int64(n))
	return n, err
}

const dialTimeout = 2 * time.Second

// wireTarget speaks HBP1 through the repository's public client.
type wireTarget struct {
	c     *wire.Client
	moved atomic.Int64 // bytes on the wire, both directions
	qs    []wire.PointQuery
}

func dialWire(addr string) (*wireTarget, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	t := &wireTarget{}
	c, err := wire.NewClient(countingConn{Conn: conn, moved: &t.moved})
	if err != nil {
		conn.Close() //histburst:allow errdrop -- handshake failed; nothing to recover
		return nil, err
	}
	t.c = c
	return t, nil
}

func (w *wireTarget) point(qs []pointCase, out []float64) error {
	w.qs = w.qs[:0]
	for _, q := range qs {
		w.qs = append(w.qs, wire.PointQuery{Event: q.e, T: q.t, Tau: queryTau})
	}
	res, err := w.c.Point(w.qs)
	if err != nil {
		return err
	}
	if len(res) != len(out) {
		return fmt.Errorf("point: %d answers for %d queries", len(res), len(out))
	}
	for i, r := range res {
		if r.Envelope != nil {
			return fmt.Errorf("point: degraded answer")
		}
		out[i] = r.Burstiness
	}
	return nil
}

func (w *wireTarget) times(c timesCase) ([]histburst.TimeRange, error) {
	ranges, env, err := w.c.Times(c.e, c.theta, queryTau)
	if err == nil && env != nil {
		err = fmt.Errorf("times: degraded answer")
	}
	return ranges, err
}

func (w *wireTarget) events(c eventsCase) ([]uint64, error) {
	hits, env, err := w.c.Events(c.t, c.theta, queryTau)
	if err != nil {
		return nil, err
	}
	if env != nil {
		return nil, fmt.Errorf("events: degraded answer")
	}
	ids := make([]uint64, len(hits))
	for i, h := range hits {
		ids[i] = h.Event
	}
	return ids, nil
}

func (w *wireTarget) appendBatch(elems stream.Stream) (int64, int64, error) {
	res, err := w.c.Append(elems)
	return res.Appended, res.Rejected, err
}

func (w *wireTarget) close() {
	w.c.Close() //histburst:allow errdrop -- tearing down a benchmark connection
}

// httpTarget speaks burstd's HTTP/JSON API over exactly one keep-alive
// connection.
type httpTarget struct {
	base   string
	client *http.Client
	moved  atomic.Int64
	shed   int64 // 503 responses seen
	body   []byte
}

func newHTTPTarget(addr string) *httpTarget {
	t := &httpTarget{base: "http://" + addr}
	dialer := &net.Dialer{Timeout: dialTimeout}
	t.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1,
			DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, address)
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: conn, moved: &t.moved}, nil
			},
		},
	}
	return t
}

// do sends one request and decodes the JSON answer into v.
func (h *httpTarget) do(method, path string, body []byte, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusServiceUnavailable {
			h.shed++
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) //histburst:allow errdrop -- best-effort error detail
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	// Drain the encoder's trailing newline so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (h *httpTarget) point(qs []pointCase, out []float64) error {
	b := append(h.body[:0], `{"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"event":`...)
		b = strconv.AppendUint(b, q.e, 10)
		b = append(b, `,"t":`...)
		b = strconv.AppendInt(b, q.t, 10)
		b = append(b, `,"tau":`...)
		b = strconv.AppendInt(b, queryTau, 10)
		b = append(b, '}')
	}
	b = append(b, `]}`...)
	h.body = b
	var resp struct {
		Results []struct {
			Burstiness float64 `json:"burstiness"`
		} `json:"results"`
		Envelope json.RawMessage `json:"envelope"`
	}
	if err := h.do(http.MethodPost, "/v1/query/batch", b, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(out) {
		return fmt.Errorf("point: %d answers for %d queries", len(resp.Results), len(out))
	}
	for i, r := range resp.Results {
		out[i] = r.Burstiness
	}
	return nil
}

func (h *httpTarget) times(c timesCase) ([]histburst.TimeRange, error) {
	var resp struct {
		Ranges   []histburst.TimeRange `json:"ranges"`
		Envelope json.RawMessage       `json:"envelope"`
	}
	path := "/v1/times?e=" + strconv.FormatUint(c.e, 10) +
		"&theta=" + strconv.FormatFloat(c.theta, 'g', -1, 64) + "&tau=" + strconv.Itoa(queryTau)
	if err := h.do(http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	if resp.Envelope != nil {
		return nil, fmt.Errorf("times: degraded answer")
	}
	return resp.Ranges, nil
}

func (h *httpTarget) events(c eventsCase) ([]uint64, error) {
	var resp struct {
		Events []struct {
			Event uint64 `json:"event"`
		} `json:"events"`
		Envelope json.RawMessage `json:"envelope"`
	}
	path := "/v1/events?t=" + strconv.FormatInt(c.t, 10) +
		"&theta=" + strconv.FormatFloat(c.theta, 'g', -1, 64) + "&tau=" + strconv.Itoa(queryTau)
	if err := h.do(http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	if resp.Envelope != nil {
		return nil, fmt.Errorf("events: degraded answer")
	}
	ids := make([]uint64, len(resp.Events))
	for i, e := range resp.Events {
		ids[i] = e.Event
	}
	return ids, nil
}

func (h *httpTarget) appendBatch(elems stream.Stream) (int64, int64, error) {
	b := append(h.body[:0], `{"elements":[`...)
	for i, el := range elems {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"event":`...)
		b = strconv.AppendUint(b, el.Event, 10)
		b = append(b, `,"time":`...)
		b = strconv.AppendInt(b, el.Time, 10)
		b = append(b, '}')
	}
	b = append(b, `]}`...)
	h.body = b
	var resp struct {
		Appended int64 `json:"appended"`
		Rejected int64 `json:"rejected"`
	}
	if err := h.do(http.MethodPost, "/v1/append", b, &resp); err != nil {
		return 0, 0, err
	}
	return resp.Appended, resp.Rejected, nil
}

func (h *httpTarget) close() { h.client.CloseIdleConnections() }

// getJSON fetches one of burstd's introspection endpoints.
func (h *httpTarget) getJSON(path string, v any) error { return h.do(http.MethodGet, path, nil, v) }

// detectorTarget runs the operations on a histburst.Detector in this
// process: the library as the paper evaluates it, no transport, no store.
type detectorTarget struct {
	det *histburst.Detector
	// fresh builds the next detector once the one being appended to has
	// taken the whole base stream (nil on a query-only target).
	fresh func() (*histburst.Detector, error)
	limit int64
}

func (d *detectorTarget) point(qs []pointCase, out []float64) error {
	for i, q := range qs {
		b, err := d.det.Burstiness(q.e, q.t, queryTau)
		if err != nil {
			return err
		}
		out[i] = b
	}
	return nil
}

func (d *detectorTarget) times(c timesCase) ([]histburst.TimeRange, error) {
	return d.det.BurstyTimes(c.e, c.theta, queryTau)
}

func (d *detectorTarget) events(c eventsCase) ([]uint64, error) {
	return d.det.BurstyEvents(c.t, c.theta, queryTau)
}

func (d *detectorTarget) appendBatch(elems stream.Stream) (int64, int64, error) {
	if d.det.N() >= d.limit {
		det, err := d.fresh()
		if err != nil {
			return 0, 0, err
		}
		d.det = det
	}
	for _, el := range elems {
		d.det.Append(el.Event, el.Time)
	}
	return int64(len(elems)), 0, nil
}

func (d *detectorTarget) close() {}

// snapshotTarget runs the queries on a segment store opened in this process;
// it is the reference the server's answers are compared with, and the
// query-side child of the traced replay.
type snapshotTarget struct{ store *segstore.Store }

func (s snapshotTarget) point(qs []pointCase, out []float64) error {
	sn := s.store.Snapshot()
	for i, q := range qs {
		b, err := sn.Burstiness(q.e, q.t, queryTau)
		if err != nil {
			return err
		}
		out[i] = b
	}
	return nil
}

func (s snapshotTarget) times(c timesCase) ([]histburst.TimeRange, error) {
	return s.store.Snapshot().BurstyTimes(c.e, c.theta, queryTau)
}

func (s snapshotTarget) events(c eventsCase) ([]uint64, error) {
	return s.store.Snapshot().BurstyEvents(c.t, c.theta, queryTau)
}

func (s snapshotTarget) appendBatch(stream.Stream) (int64, int64, error) {
	return 0, 0, fmt.Errorf("the reference store is read-only")
}

func (s snapshotTarget) close() {}
