package main

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"histburst"
	"histburst/internal/binenc"
	"histburst/internal/pbe"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/wire"
)

// The two transports, proved alike in process. Each row of the route table
// is an HTTP request and, where HBP1 can say it, its HBP1 twin, both served
// by one *server: HTTP through srv.handler() into a recorder, HBP1 through
// srv.wireServer().ServeConn over net.Pipe. Both replies decode into one
// wire value — or one refusal — and must be equal, floats by their bits; a
// query's must also equal the wire.Answer* call on the server's snapshot.
// Rows that append run on twin servers, one a transport, built and fed
// alike. Each test below runs its groups of rows.

// The query fixture (queryServer) cycles through ids 0..63, one element
// every 50 time units over [0, 400 000), with five more of id 3 at each of
// those instants in [200 000, 210 000) and of id 5 in [300 000, 305 000).
const (
	mid        = 210_000 // where id 3's burst ends
	frontier   = 399_950
	queryElems = 8000 + 1000 + 500
)

func TestStatsEndpoint(t *testing.T) {
	group{serve: queryServer, rows: []row{
		{http: "GET /v1/stats", twin: statsOverTCP(), want: "every element, two sealed periods and a head",
			check: func(_ *rig, r outcome) bool {
				st := r.Value.(wire.Stats)
				return st.Elements == queryElems && st.MaxTime == frontier && st.Segments == 2 && st.HeadElems > 0
			}},
	}}.run(t)
}

func TestBurstinessEndpoint(t *testing.T) {
	group{serve: queryServer, rows: []row{
		{http: "GET /v1/burstiness?e=3&t=210000&tau=86400", twin: points(pq(3, mid, 86_400)),
			want: "id 3 bursty", check: func(_ *rig, r outcome) bool { return r.Value.([]echoed)[0].Burstiness > 500 }},
		{http: "GET /v1/burstiness?e=3", status: 400, says: `missing parameter "t"`},
		// The τ default rules side by side: a GET naming tau=0 is refused,
		// one leaving tau out takes the default, as a 0 does over HBP1 and
		// in a batch.
		{http: "GET /v1/burstiness?e=3&t=210000&tau=0", status: 400, says: "query 0: burst span must be positive, got 0"},
		{http: "GET /v1/burstiness?e=3&t=210000", twin: points(pq(3, mid, 0))},
		{http: "POST /v1/query/batch", body: `{"queries":[{"event":3,"t":210000,"tau":0}]}`, twin: points(pq(3, mid, 0))},
	}}.run(t)
}

func TestTimesAndEventsEndpoints(t *testing.T) {
	group{serve: queryServer, rows: []row{
		{http: "GET /v1/times?e=3&theta=100", twin: times(3, 100, 0),
			want: "id 3's burst", check: func(_ *rig, r outcome) bool { return len(r.Value.([]histburst.TimeRange)) > 0 }},
		{http: "GET /v1/times?e=3&theta=100&tau=0", status: 400, says: "burst span must be positive, got 0"},
		{http: "GET /v1/events?t=210000&theta=100", twin: events(mid, 100, 0), want: "id 3 alone",
			check: func(_ *rig, r outcome) bool { return reflect.DeepEqual(ids(r), []uint64{3}) }},
		{http: "GET /v1/events?t=210000&theta=0", status: 400, twin: events(mid, 0, 0)},
		{http: "GET /v1/top?t=210000&k=3", twin: top(mid, 3, 0),
			want: "three hits, id 3 first", check: func(_ *rig, r outcome) bool { return len(ids(r)) == 3 && ids(r)[0] == 3 }},
		// The k default rules side by side, as τ's above.
		{http: "GET /v1/top?t=210000&k=0", status: 400, says: "k must be positive, got 0"},
		{http: "GET /v1/top?t=210000", twin: top(mid, 0, 0),
			want: "wire.DefaultK hits", check: func(_ *rig, r outcome) bool { return len(ids(r)) == int(wire.DefaultK) }},
	}}.run(t)
}

// Results in request order, each echoing its query with the default τ in
// place of an omitted one.
func TestQueryBatchEndpoint(t *testing.T) {
	group{serve: queryServer, rows: []row{batchRow(pq(3, mid, 100), pq(5, mid, 100), pq(3, mid, 0))}}.run(t)
}

func TestQueryBatchLarge(t *testing.T) {
	group{serve: queryServer, rows: []row{batchRow(largeBatch()...)}}.run(t)
}

// Over the bound, HBP1 answers an ERR frame with HTTP's message on a
// connection that stays up: the next frame on it is answered.
func TestQueryBatchValidation(t *testing.T) {
	overBound := batchRow(make([]wire.PointQuery, wire.MaxBatchQueries+1)...)
	overBound.status, overBound.says = 400, fmt.Sprintf("batch of %d exceeds the %d-query limit", wire.MaxBatchQueries+1, wire.MaxBatchQueries)
	group{serve: queryServer, rows: []row{
		{http: "POST /v1/query/batch", body: `{"queries":[]}`, status: 400, twin: points()},
		{http: "POST /v1/query/batch", body: `not json`, status: 400},
		{http: "POST /v1/query/batch", body: `{"queries":[{"event":1,"t":5,"tau":-3}]}`, status: 400, twin: points(pq(1, 5, -3))},
		overBound,
		batchRow(pq(3, mid, 100)),
	}}.run(t)
}

func TestAppendEndpoint(t *testing.T) {
	group{serve: emptyServer, twins: true, rows: []row{
		appendRow(stream.Stream{{Event: 3, Time: 100}, {Event: 3, Time: 200}}).expect("both appended",
			func(_ *rig, r outcome) bool { return r.Value == wire.AppendResult{Appended: 2, Elements: 2} }),
		// Still head-resident, so exact: b(200) = F(200) − 2F(150) + F(100) = 2 − 2 + 1.
		{http: "GET /v1/burstiness?e=3&t=200&tau=50", twin: points(pq(3, 200, 50)),
			want: "burstiness 1", check: func(_ *rig, r outcome) bool { return r.Value.([]echoed)[0].Burstiness == 1 }},
		appendRow(nil).refused(400, 0, "empty batch"),
		{http: "POST /v1/append", body: `not json`, status: 400},
	}}.run(t)
}

func TestWireHTTPQueryEquivalence(t *testing.T) {
	t.Run("point", group{serve: queryServer, rows: pointSweep()}.run)
	t.Run("times", group{serve: queryServer, rows: []row{{http: "GET /v1/times?e=3&theta=100&tau=86400", twin: times(3, 100, 86_400)}}}.run)
	t.Run("events", group{serve: queryServer, rows: []row{{http: "GET /v1/events?t=210000&theta=50&tau=86400", twin: events(mid, 50, 86_400)}}}.run)
	t.Run("top", group{serve: queryServer, rows: []row{{http: "GET /v1/top?t=210000&k=5&tau=86400", twin: top(mid, 5, 86_400)}}}.run)
	t.Run("stats", group{serve: queryServer, rows: []row{
		// Counted beside held: /healthz counts the bytes STATS does.
		{http: "GET /v1/stats", twin: stats(), want: "the bytes /healthz counts",
			check: func(g *rig, r outcome) bool {
				rec := httptest.NewRecorder()
				g.h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
				var h struct {
					Bytes int64
					Heap  int64 `json:"heap_alloc_bytes"`
				}
				err := json.Unmarshal(rec.Body.Bytes(), &h)
				return err == nil && h.Heap > 0 && h.Bytes == r.Value.(wire.Stats).Bytes
			}},
	}}.run)
	t.Run("errors", group{serve: queryServer, rows: []row{
		{http: "POST /v1/query/batch", body: `{"queries":[{"event":1,"t":5,"tau":-7}]}`, status: 400, twin: points(pq(1, 5, -7))},
		{http: "GET /v1/events?t=5&theta=-1&tau=60", status: 400, twin: events(5, -1, 60)},
		{http: "GET /v1/top?t=5&k=-2&tau=60", status: 400, twin: top(5, -2, 60)},
	}}.run)
}

// Acks agree field for field, rejections behind the frontier included.
func TestWireHTTPAppendEquivalence(t *testing.T) {
	group{serve: emptyServer, twins: true, rows: []row{
		appendRow(stream.Stream{{Event: 3, Time: 100}, {Event: 4, Time: 101}, {Event: 3, Time: 150}}),
		appendRow(stream.Stream{{Event: 5, Time: 90}, {Event: 5, Time: 200}}), // one behind the frontier
		appendRow(stream.Stream{{Event: 1, Time: 10}, {Event: 2, Time: 20}}),  // all behind
		appendRow(stream.Stream{{Event: 9, Time: 300}, {Event: 10, Time: 300}}).expect("ties at the frontier taken, three rejected so far",
			func(_ *rig, r outcome) bool {
				return r.Value == wire.AppendResult{Appended: 2, Elements: 6, OutOfOrder: 3}
			}),
	}}.run(t)
}

func TestWireDegradedEnvelopeMatchesHTTP(t *testing.T) {
	group{serve: quarantineServer, rows: []row{
		{http: "GET /v1/burstiness?e=1&t=15&tau=4", twin: points(pq(1, 15, 4)), want: "a degraded envelope", check: degraded},
		batchRow(pq(1, 15, 4)).expect("a degraded envelope", degraded),
	}}.run(t)
}

// One append verdict reads alike on both transports: the HTTP status pins
// the NACK code, Retry-After is the NACK's hint in whole seconds rounded up,
// and a refusal's message and envelope are the same on each; an internal
// error carries no hint and no envelope, an accepted batch neither.
func TestWireReadOnlyNackMatchesHTTP(t *testing.T) {
	t.Run("draining", refusal(func(s *server) { s.ready.Store(false) }, http.StatusServiceUnavailable, wire.NackDraining).run)
	t.Run("read-only", refusal(func(s *server) { s.readOnly.Store(true) }, http.StatusServiceUnavailable, wire.NackReadOnly).run)
	t.Run("disk fault", refusal(failWith(fmt.Errorf("wal append: %w", syscall.ENOSPC)), http.StatusServiceUnavailable, wire.NackReadOnly).run)
	t.Run("internal error", refusal(failWith(errors.New("admission mismatch")), http.StatusInternalServerError, wire.NackInternal).run)
	t.Run("accepted", refusal(func(*server) {}, 0, 0).run)
}

// Both transports take wire.MaxAppendElems elements a batch and refuse one
// more with one message, HBP1 on a connection that stays up. The HBP1 twins
// send each batch as one APPEND frame, which wire.Client, chunking, never
// does.
func TestWireHTTPAppendBound(t *testing.T) {
	atBound, overBound := ramp(0, wire.MaxAppendElems), ramp(1024, wire.MaxAppendElems+1)
	group{serve: emptyServer, twins: true, rows: []row{
		{http: "POST /v1/append", body: appendBody(atBound), twin: rawAppend(atBound),
			want: "every element appended", check: func(_ *rig, r outcome) bool {
				return r.Value == wire.AppendResult{Appended: wire.MaxAppendElems, Elements: wire.MaxAppendElems}
			}},
		{http: "POST /v1/append", body: appendBody(overBound), status: 400, twin: rawAppend(overBound),
			says: fmt.Sprintf("batch of %d elements exceeds the %d-element limit", wire.MaxAppendElems+1, wire.MaxAppendElems)},
	}}.run(t)
}

// A group is rows run in order against one fixture.
type group struct {
	serve func(*testing.T) *server // the fixture
	twins bool                     // the rows append: each transport gets a fixture of its own
	rows  []row
}

// A row is one request on both transports and what their replies must show.
type row struct {
	http   string // "METHOD target"
	body   string
	twin                 // its HBP1 form and Answer* call; either may be nil
	status int           // the HTTP status, 0 for 200
	nack   wire.NackCode // the HBP1 twin's NACK code, 0 for none
	says   string        // when set, the refusal's message
	want   string        // what check asserts
	check  func(*rig, outcome) bool
}

// A twin is a request's HBP1 form and, for a query, the wire.Answer* call
// both transports must agree with, over the defaults HBP1 substitutes for
// a τ or k of 0. Each returns a wire value, the envelope a scan carries
// beside it, and an error.
type twin struct {
	hbp1   func(*testing.T, *rig) (any, *pbe.ErrorEnvelope, error)
	answer func(wire.Querier) (any, *pbe.ErrorEnvelope, error)
}

// An outcome is a reply in the form both transports share: a wire value
// and a scan's envelope, or a refusal's message and envelope; either may
// carry a Retry-After hint in whole seconds.
type outcome struct {
	Value      any
	Error      string
	RetryAfter string
	Envelope   *pbe.ErrorEnvelope
}

// echoed is one POINT answer as HTTP writes it, its query beside it.
type echoed struct {
	wire.PointQuery
	wire.PointResult
}

func (g group) run(t *testing.T) {
	hr := newRig(t, g.serve(t))
	wr := hr
	if g.twins {
		wr = newRig(t, g.serve(t))
	}
	for _, r := range g.rows {
		r.run(t, hr, wr)
	}
}

// run serves r over HTTP on hr and over HBP1 on wr and compares the
// outcomes with each other and with the Answer* call on hr's snapshot.
func (r row) run(t *testing.T, hr, wr *rig) {
	t.Helper()
	got := hr.serveHTTP(t, r)
	if r.hbp1 != nil {
		v, env, err := r.hbp1(t, wr)
		if w := r.outcome(t, v, env, err); !sameBits(reflect.ValueOf(got), reflect.ValueOf(w)) {
			t.Fatalf("%s:\nHTTP %+v\nHBP1 %+v", r, got, w)
		}
	}
	if r.answer != nil {
		v, env, err := r.answer(hr.srv.store.Snapshot())
		if err != nil {
			err = &wire.RequestError{Message: err.Error()}
		}
		if a := r.outcome(t, v, env, err); !sameBits(reflect.ValueOf(got), reflect.ValueOf(a)) {
			t.Fatalf("%s:\nHTTP    %+v\nAnswer* %+v", r, got, a)
		}
	}
	if r.says != "" && got.Error != r.says {
		t.Fatalf("%s: refused with %q, want %q", r, got.Error, r.says)
	}
	if r.check != nil && !r.check(hr, got) {
		t.Fatalf("%s: %+v, want %s", r, got, r.want)
	}
}

func (r row) expect(want string, check func(*rig, outcome) bool) row {
	r.want, r.check = want, check
	return r
}

func (r row) refused(status int, code wire.NackCode, says string) row {
	r.status, r.nack, r.says = status, code, says
	return r
}

func (r row) String() string { return r.http + " " + r.body[:min(len(r.body), 80)] }

// outcome is an HBP1 or Answer* result as an outcome: a RequestError (an
// ERR frame) reads as an HTTP 400 does, a NACK must carry the row's code,
// and its hint reads as Retry-After does, in whole seconds rounded up.
func (r row) outcome(t *testing.T, v any, env *pbe.ErrorEnvelope, err error) outcome {
	t.Helper()
	var re *wire.RequestError
	var ne *wire.NackError
	switch {
	case err == nil && r.nack == 0:
		return outcome{Value: settle(t, v), Envelope: env}
	case errors.As(err, &re) && r.nack == 0:
		return outcome{Error: re.Message}
	case errors.As(err, &ne) && ne.Code == r.nack:
		out := outcome{Error: ne.Message, Envelope: ne.Envelope}
		if ne.RetryAfter > 0 {
			out.RetryAfter = strconv.FormatInt(int64((ne.RetryAfter+time.Second-1)/time.Second), 10)
		}
		return out
	}
	t.Fatalf("%s: HBP1 answered %+v, %v; want NACK code %d", r, v, err, r.nack)
	return outcome{}
}

// settle zeroes the one field two calls cannot share, the live heap a
// Stats reads, once it has shown to be a live reading.
func settle(t *testing.T, v any) any {
	t.Helper()
	if st, ok := v.(wire.Stats); ok {
		if st.HeapAlloc <= 0 {
			t.Fatalf("stats carry no live heap reading: %+v", st)
		}
		st.HeapAlloc = 0
		return st
	}
	return v
}

// sameBits reports whether a and b are deeply equal, every float compared
// by its bits. A nil slice equals an empty one: JSON's null and [] are the
// same answer.
func sameBits(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// rig is one server in process: its HTTP handler, and an HBP1 client on a
// pipe into its wire server.
type rig struct {
	srv *server
	ws  *wire.Server
	h   http.Handler
	wc  *wire.Client
}

func newRig(t *testing.T, srv *server) *rig {
	t.Helper()
	g := &rig{srv: srv, ws: srv.wireServer(), h: srv.handler()}
	wc, err := wire.NewClient(g.pipe(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	g.wc = wc
	return g
}

// pipe serves an HBP1 session on one end of a net.Pipe until the test ends
// and returns the other end.
func (g *rig) pipe(t *testing.T) net.Conn {
	c, s := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.ws.ServeConn(s) //nolint:errcheck // the session ends with the pipe
	}()
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c
}

// serveHTTP answers r's request through the handler and decodes the reply:
// a 200 body into the wire value its route answers with, any other into a
// refusal.
func (g *rig) serveHTTP(t *testing.T, r row) outcome {
	t.Helper()
	method, target, _ := strings.Cut(r.http, " ")
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(r.body)))
	if want := cmp.Or(r.status, http.StatusOK); rec.Code != want {
		t.Fatalf("%s: HTTP %d, want %d: %s", r, rec.Code, want, rec.Body)
	}
	var body struct {
		Error    string
		Envelope *pbe.ErrorEnvelope
		Ranges   []histburst.TimeRange
		Events   []wire.EventHit
		Results  []echoed
	}
	b := rec.Body.Bytes()
	err := json.Unmarshal(b, &body)
	out := outcome{RetryAfter: rec.Header().Get("Retry-After"), Envelope: body.Envelope}
	switch path, _, _ := strings.Cut(target, "?"); {
	case rec.Code != http.StatusOK:
		out.Error = body.Error
	case path == "/v1/times":
		out.Value = body.Ranges
	case path == "/v1/events" || path == "/v1/top":
		out.Value = body.Events
	case path == "/v1/query/batch":
		out.Value = body.Results
	case path == "/v1/burstiness":
		var one echoed
		err = cmp.Or(err, json.Unmarshal(b, &one))
		out.Value, out.Envelope = []echoed{one}, nil
	case path == "/v1/stats":
		var st wire.Stats
		err = cmp.Or(err, json.Unmarshal(b, &st))
		out.Value = settle(t, st)
	default:
		var ack wire.AppendResult
		err = cmp.Or(err, json.Unmarshal(b, &ack))
		out.Value = ack
	}
	if err != nil {
		t.Fatalf("%s: decode %s: %v", r, b, err)
	}
	return out
}

func pq(e uint64, t, tau int64) wire.PointQuery { return wire.PointQuery{Event: e, T: t, Tau: tau} }

// points is a batch of POINT queries, each answer beside its query as HTTP
// echoes it: with the default τ in place of a 0.
func points(qs ...wire.PointQuery) twin {
	eff := make([]wire.PointQuery, len(qs))
	for i, q := range qs {
		eff[i] = q
		eff[i].Tau = cmp.Or(q.Tau, wire.DefaultTau)
	}
	echo := func(res []wire.PointResult, err error) (any, *pbe.ErrorEnvelope, error) {
		out := make([]echoed, len(res))
		for i := range res {
			out[i] = echoed{eff[i], res[i]}
		}
		return out, nil, err
	}
	return twin{
		hbp1:   func(_ *testing.T, g *rig) (any, *pbe.ErrorEnvelope, error) { return echo(g.wc.Point(qs)) },
		answer: func(q wire.Querier) (any, *pbe.ErrorEnvelope, error) { return echo(wire.AnswerPoint(q, eff)) },
	}
}

func times(e uint64, theta float64, tau int64) twin {
	return twin{
		hbp1: func(_ *testing.T, g *rig) (any, *pbe.ErrorEnvelope, error) { return g.wc.Times(e, theta, tau) },
		answer: func(q wire.Querier) (any, *pbe.ErrorEnvelope, error) {
			return wire.AnswerTimes(q, e, theta, cmp.Or(tau, wire.DefaultTau))
		},
	}
}

func events(t int64, theta float64, tau int64) twin {
	return twin{
		hbp1: func(_ *testing.T, g *rig) (any, *pbe.ErrorEnvelope, error) { return g.wc.Events(t, theta, tau) },
		answer: func(q wire.Querier) (any, *pbe.ErrorEnvelope, error) {
			return wire.AnswerEvents(q, t, theta, cmp.Or(tau, wire.DefaultTau))
		},
	}
}

func top(t, k, tau int64) twin {
	return twin{
		hbp1: func(_ *testing.T, g *rig) (any, *pbe.ErrorEnvelope, error) { return g.wc.Top(t, k, tau) },
		answer: func(q wire.Querier) (any, *pbe.ErrorEnvelope, error) {
			return wire.AnswerTop(q, t, cmp.Or(k, wire.DefaultK), cmp.Or(tau, wire.DefaultTau))
		},
	}
}

func stats() twin {
	return twin{hbp1: func(_ *testing.T, g *rig) (any, *pbe.ErrorEnvelope, error) { return statsOf(g.wc) }}
}

func statsOf(c *wire.Client) (any, *pbe.ErrorEnvelope, error) {
	st, err := c.Stats()
	return st, nil, err
}

// statsOverTCP is the one twin on a socket: STATS through listenWire and
// wire.Dial on loopback, so the listener glue stays covered.
func statsOverTCP() twin {
	return twin{hbp1: func(t *testing.T, g *rig) (any, *pbe.ErrorEnvelope, error) {
		wl, err := listenWire(g.srv, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer wl.Close()
		wc, err := wire.Dial(wl.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		return statsOf(wc)
	}}
}

func appendRow(s stream.Stream) row {
	return row{http: "POST /v1/append", body: appendBody(s), twin: twin{
		hbp1: func(_ *testing.T, g *rig) (any, *pbe.ErrorEnvelope, error) {
			ack, err := g.wc.Append(s)
			return ack, nil, err
		}}}
}

func appendBody(s stream.Stream) string {
	b := []byte(`{"elements":[`)
	for i, el := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"event":%d,"time":%d}`, el.Event, el.Time)
	}
	return string(append(b, "]}"...))
}

// rawAppend sends s as one APPEND frame by hand, then one element more on
// the same connection, which must be acknowledged: a frame at the bound
// leaves the session going, and a refused one leaves the stream whole.
func rawAppend(s stream.Stream) twin {
	return twin{hbp1: func(t *testing.T, g *rig) (any, *pbe.ErrorEnvelope, error) {
		const frameAck, frameErr = 0x11, 0x19
		c := g.pipe(t)
		br := bufio.NewReader(c)
		frame := func() *binenc.Reader { // a u32 length, a u32 CRC-32C, the payload
			var hdr [8]byte
			_, err := io.ReadFull(br, hdr[:])
			p := make([]byte, binary.LittleEndian.Uint32(hdr[:4]))
			if _, rerr := io.ReadFull(br, p); cmp.Or(err, rerr) != nil {
				t.Fatal(cmp.Or(err, rerr))
			}
			return binenc.NewReader(p)
		}
		// send writes one APPEND frame and reads to the frame answering it,
		// past CREDIT frames (request id 0).
		send := func(id uint64, elems stream.Stream) (byte, *binenc.Reader) {
			var w binenc.Writer
			w.Byte(0x01)
			w.Uvarint(id)
			w.Uvarint(uint64(len(elems)))
			stream.AppendRun(&w, elems)
			hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(w.Bytes())))
			hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(w.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
			if _, err := c.Write(append(hdr, w.Bytes()...)); err != nil {
				t.Fatal(err)
			}
			for {
				r := frame()
				if kind := r.Byte(); r.Uvarint() == id {
					return kind, r
				}
			}
		}
		if _, err := c.Write(binary.LittleEndian.AppendUint32([]byte(wire.Magic), wire.Version)); err != nil {
			t.Fatal(err)
		}
		frame() // HELLO
		var v any
		kind, r := send(1, s)
		switch kind {
		case frameAck: // appended, rejected, elements, out of order
			v = wire.AppendResult{Appended: int64(r.Uvarint()), Rejected: int64(r.Uvarint()),
				Elements: int64(r.Uvarint()), OutOfOrder: int64(r.Uvarint())}
		case frameErr:
			v = &wire.RequestError{Message: string(r.BytesBlob())}
		default:
			t.Fatalf("frame 0x%02x, want an ack or an ERR", kind)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if next, _ := send(2, stream.Stream{{Event: 1, Time: s[len(s)-1].Time + 1}}); next != frameAck {
			t.Fatalf("HBP1 connection after frame 0x%02x: frame 0x%02x, want an ack", kind, next)
		}
		if err, ok := v.(error); ok {
			return nil, nil, err
		}
		return v, nil, nil
	}}
}

// batchRow is a /v1/query/batch row; a τ of 0 is left out of its body.
func batchRow(qs ...wire.PointQuery) row {
	body, err := json.Marshal(map[string]any{"queries": qs})
	if err != nil {
		panic(err)
	}
	return row{http: "POST /v1/query/batch", body: string(body), twin: points(qs...)}
}

// pointSweep asks eight ids at two instants for three spans, the default
// one left out of the GET and 0 over HBP1.
func pointSweep() []row {
	var rows []row
	for e := range uint64(8) {
		for _, tm := range []int64{mid, frontier} {
			for _, tau := range []int64{3600, 86_400, 0} {
				target := fmt.Sprintf("GET /v1/burstiness?e=%d&t=%d", e, tm)
				if tau != 0 {
					target += fmt.Sprintf("&tau=%d", tau)
				}
				rows = append(rows, row{http: target, twin: points(pq(e, tm, tau))})
			}
		}
	}
	return rows
}

// largeBatch is 2000 point queries over every id.
func largeBatch() []wire.PointQuery {
	qs := make([]wire.PointQuery, 2000)
	for i := range qs {
		qs[i] = pq(uint64(i%64), mid-int64(i%200)*50, 5000)
	}
	return qs
}

// ramp is n elements over seven ids from time from on, 64 an instant.
func ramp(from int64, n int) stream.Stream {
	s := make(stream.Stream, n)
	for i := range s {
		s[i] = stream.Element{Event: uint64(i % 7), Time: from + int64(i)/64}
	}
	return s
}

// ids are the ids a scan found, in its order.
func ids(r outcome) []uint64 {
	var out []uint64
	for _, h := range r.Value.([]wire.EventHit) {
		out = append(out, h.Event)
	}
	return out
}

func degraded(_ *rig, r outcome) bool {
	env := r.Value.([]echoed)[0].Envelope
	return env != nil && env.Degraded && env.MissingElements > 0 && len(env.Missing) > 0
}

// refusal is the group of one append verdict, which setup makes the
// server reach.
func refusal(setup func(*server), status int, code wire.NackCode) group {
	r := appendRow(stream.Stream{{Event: 1, Time: 10}}).refused(status, code, "")
	switch status {
	case http.StatusServiceUnavailable:
		r = r.expect("a hint and the store's envelope", func(_ *rig, r outcome) bool {
			return r.RetryAfter != "" && r.Envelope != nil
		})
	case http.StatusInternalServerError:
		r = r.expect("no hint, no envelope", func(_ *rig, r outcome) bool {
			return r.RetryAfter == "" && r.Envelope == nil
		})
	}
	return group{twins: true, rows: []row{r}, serve: func(t *testing.T) *server {
		srv := emptyServer(t)
		setup(srv)
		return srv
	}}
}

func failWith(err error) func(*server) {
	return func(s *server) {
		s.append = func(stream.Stream) segstore.BatchResult { return segstore.BatchResult{Err: err} }
	}
}

// newFixture builds a K = 64 server in process and closes it with the test.
func newFixture(t *testing.T, o serverOpts) *server {
	t.Helper()
	o.K, o.Gamma, o.Seed, o.Logf = 64, 2, 1, t.Logf
	srv, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.ready.Store(false) // a read-only server's prober exits
		if err := srv.store.Close(); err != nil {
			t.Error(err)
		}
	})
	return srv
}

func emptyServer(t *testing.T) *server { return newFixture(t, serverOpts{}) }

// queryServer is the query fixture (see mid), sealed at 150 000 and
// 280 000 with the rest in the head. It neither seals nor compacts on its
// own, so every row meets one generation.
func queryServer(t *testing.T) *server {
	t.Helper()
	srv := newFixture(t, serverOpts{SealEvents: -1, Fanout: -1})
	tm := int64(0)
	for _, cut := range []int64{150_000, 280_000, frontier + 1} {
		var s stream.Stream
		for ; tm < cut; tm += 50 {
			s = append(s, stream.Element{Event: uint64(tm/50) % 64, Time: tm})
			if tm >= 200_000 && tm < mid || tm >= 300_000 && tm < 305_000 {
				e := uint64(3)
				if tm >= 300_000 {
					e = 5
				}
				for range 5 {
					s = append(s, stream.Element{Event: e, Time: tm})
				}
			}
		}
		if res := srv.ingest(s); res.Err != nil || res.Refused != 0 {
			t.Fatalf("ingest: %+v", res)
		}
		if cut < frontier {
			if err := srv.store.Checkpoint(true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return srv
}

// quarantineServer serves a store whose first sealed segment is damaged,
// so the history below it is missing and queries degrade.
func quarantineServer(t *testing.T) *server {
	t.Helper()
	dir := t.TempDir()
	st, err := segstore.Open(dir, segstore.Config{K: 64, Gamma: 2, Seed: 1, SealEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 16 {
		if err := st.Append(uint64(i%4), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	segs := st.Segments()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("fixture sealed %d segments, want >= 2", len(segs))
	}
	path := filepath.Join(dir, segs[0].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return newFixture(t, serverOpts{SnapDir: dir})
}
