package main

import (
	"encoding/json"
	"fmt"
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

	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/wire"
)

// Equivalence: the HBP1 transport must answer every query shape and every
// append outcome semantically identically to the HTTP handlers — same
// numbers, same rejection counts, same degraded envelopes, same error
// strings. Both transports front the same snapshot accessors and ingest
// seam, and these tests pin that the mapping layers agree.

// bothTransports starts HTTP and wire frontends over one server.
func bothTransports(t *testing.T, srv *server) (*httptest.Server, *wire.Client) {
	t.Helper()
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	wl, err := listenWire(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wl.Close)
	wc, err := wire.Dial(wl.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	return ts, wc
}

func demoServer(t *testing.T) *server {
	t.Helper()
	srv, err := newServer(serverOpts{N: 20_000, Gamma: 8, Seed: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestWireHTTPQueryEquivalence(t *testing.T) {
	srv := demoServer(t)
	ts, wc := bothTransports(t, srv)
	maxT := srv.store.MaxTime()

	t.Run("point", func(t *testing.T) {
		var qs []wire.PointQuery
		for e := uint64(0); e < 8; e++ {
			for _, tau := range []int64{3600, 86_400, 0} {
				qs = append(qs, wire.PointQuery{Event: e, T: maxT / 2, Tau: tau})
				qs = append(qs, wire.PointQuery{Event: e, T: maxT, Tau: tau})
			}
		}
		got, err := wc.Point(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			tau := q.Tau
			if tau == 0 {
				tau = 86_400 // the wire default matches the batch endpoint's
			}
			var out map[string]any
			url := fmt.Sprintf("%s/v1/burstiness?e=%d&t=%d&tau=%d", ts.URL, q.Event, q.T, tau)
			if code := getJSON(t, url, &out); code != 200 {
				t.Fatalf("query %d: HTTP %d: %v", i, code, out)
			}
			if got[i].Burstiness != out["burstiness"].(float64) {
				t.Fatalf("query %d (%+v): wire %v, http %v", i, q, got[i].Burstiness, out["burstiness"])
			}
			if got[i].Envelope != nil {
				t.Fatalf("query %d: wire envelope on a whole history", i)
			}
			if _, degraded := out["envelope"]; degraded {
				t.Fatalf("query %d: http envelope on a whole history", i)
			}
		}
	})

	t.Run("times", func(t *testing.T) {
		ranges, env, err := wc.Times(3, 100, 86_400)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if code := getJSON(t, fmt.Sprintf("%s/v1/times?e=3&theta=100&tau=86400", ts.URL), &out); code != 200 {
			t.Fatalf("HTTP %d: %v", code, out)
		}
		httpRanges, _ := out["ranges"].([]any)
		if len(ranges) != len(httpRanges) {
			t.Fatalf("wire %d ranges, http %d", len(ranges), len(httpRanges))
		}
		for i, r := range ranges {
			hr := httpRanges[i].(map[string]any)
			if float64(r.Start) != hr["Start"].(float64) || float64(r.End) != hr["End"].(float64) {
				t.Fatalf("range %d: wire %+v, http %v", i, r, hr)
			}
		}
		if env != nil || out["envelope"] != nil {
			t.Fatal("envelope on a whole history")
		}
	})

	t.Run("events", func(t *testing.T) {
		hits, _, err := wc.Events(maxT/2, 50, 86_400)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if code := getJSON(t, fmt.Sprintf("%s/v1/events?t=%d&theta=50&tau=86400", ts.URL, maxT/2), &out); code != 200 {
			t.Fatalf("HTTP %d: %v", code, out)
		}
		httpHits, _ := out["events"].([]any)
		if len(hits) != len(httpHits) {
			t.Fatalf("wire %d hits, http %d", len(hits), len(httpHits))
		}
		for i, h := range hits {
			hh := httpHits[i].(map[string]any)
			if float64(h.Event) != hh["event"].(float64) || h.Burstiness != hh["burstiness"].(float64) {
				t.Fatalf("hit %d: wire %+v, http %v", i, h, hh)
			}
		}
	})

	t.Run("top", func(t *testing.T) {
		hits, _, err := wc.Top(maxT/2, 5, 86_400)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if code := getJSON(t, fmt.Sprintf("%s/v1/top?t=%d&k=5&tau=86400", ts.URL, maxT/2), &out); code != 200 {
			t.Fatalf("HTTP %d: %v", code, out)
		}
		httpHits, _ := out["events"].([]any)
		if len(hits) != len(httpHits) {
			t.Fatalf("wire %d hits, http %d", len(hits), len(httpHits))
		}
		for i, h := range hits {
			// /v1/top and /v1/events encode the same wire.EventHit.
			hh := httpHits[i].(map[string]any)
			if float64(h.Event) != hh["event"].(float64) || h.Burstiness != hh["burstiness"].(float64) {
				t.Fatalf("hit %d: wire %+v, http %v", i, h, hh)
			}
		}
	})

	t.Run("stats", func(t *testing.T) {
		st, err := wc.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if code := getJSON(t, ts.URL+"/v1/stats", &out); code != 200 {
			t.Fatalf("HTTP %d: %v", code, out)
		}
		if float64(st.Elements) != out["elements"].(float64) ||
			float64(st.MaxTime) != out["maxTime"].(float64) ||
			float64(st.EventSpace) != out["eventSpace"].(float64) ||
			float64(st.Segments) != out["segments"].(float64) ||
			float64(st.Generation) != out["generation"].(float64) ||
			st.ReadOnly != out["readOnly"].(bool) {
			t.Fatalf("wire %+v, http %v", st, out)
		}
		// Counted beside held, on both transports: the store's bytes agree
		// to the byte, the heap is a live reading on each.
		var health map[string]any
		if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
			t.Fatalf("healthz: HTTP %d", code)
		}
		if health["bytes"] != float64(st.Bytes) || health["bytes"] != out["bytes"] {
			t.Fatalf("bytes: healthz %v, /v1/stats %v, wire %d", health["bytes"], out["bytes"], st.Bytes)
		}
		if heap, _ := health["heap_alloc_bytes"].(float64); heap <= 0 || st.HeapAlloc <= 0 {
			t.Fatalf("heap_alloc_bytes: healthz %v, wire %d, want live readings", health["heap_alloc_bytes"], st.HeapAlloc)
		}
	})

	t.Run("errors", func(t *testing.T) {
		// The wire ERR frame carries the HTTP handlers' exact error strings.
		cases := []struct {
			name string
			call func() error
			url  string // HTTP route producing the same error ("" = batch)
			body string
		}{
			{"negative tau", func() error {
				_, err := wc.Point([]wire.PointQuery{{Event: 1, T: 5, Tau: -7}})
				return err
			}, "", `{"queries":[{"event":1,"t":5,"tau":-7}]}`},
			{"theta", func() error { _, _, err := wc.Events(5, -1, 60); return err },
				"/v1/events?t=5&theta=-1&tau=60", ""},
			{"k", func() error { _, _, err := wc.Top(5, -2, 60); return err },
				"/v1/top?t=5&k=-2&tau=60", ""},
		}
		for _, tc := range cases {
			err := tc.call()
			re, ok := err.(*wire.RequestError)
			if !ok {
				t.Fatalf("%s: wire error = %v, want RequestError", tc.name, err)
			}
			var out map[string]any
			var code int
			if tc.url != "" {
				code = getJSON(t, ts.URL+tc.url, &out)
			} else {
				resp, err := http.Post(ts.URL+"/v1/query/batch", "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				code = resp.StatusCode
				if err := jsonDecode(resp, &out); err != nil {
					t.Fatal(err)
				}
			}
			if code != 400 {
				t.Fatalf("%s: HTTP %d, want 400", tc.name, code)
			}
			if re.Message != out["error"].(string) {
				t.Fatalf("%s: wire %q, http %q", tc.name, re.Message, out["error"])
			}
		}
	})
}

func jsonDecode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

func TestWireHTTPAppendEquivalence(t *testing.T) {
	// Two identical empty servers; the same batches go to one over HTTP and
	// the other over wire. Acks must agree field for field, including the
	// rejection counts of out-of-order elements.
	mk := func() *server {
		srv, err := newServer(serverOpts{K: 64, Gamma: 2, Seed: 1, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	hsrv, wsrv := mk(), mk()
	ts := httptest.NewServer(hsrv.handler())
	t.Cleanup(ts.Close)
	wl, err := listenWire(wsrv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wl.Close)
	wc, err := wire.Dial(wl.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })

	batches := []stream.Stream{
		{{Event: 3, Time: 100}, {Event: 4, Time: 101}, {Event: 3, Time: 150}},
		{{Event: 5, Time: 90}, {Event: 5, Time: 200}},   // one behind the frontier
		{{Event: 1, Time: 10}, {Event: 2, Time: 20}},    // all behind
		{{Event: 9, Time: 300}, {Event: 10, Time: 300}}, // ties at the frontier
	}
	for i, batch := range batches {
		var parts []string
		for _, el := range batch {
			parts = append(parts, fmt.Sprintf(`{"event":%d,"time":%d}`, el.Event, el.Time))
		}
		code, httpOut := postAppend(t, ts.URL, strings.Join(parts, ","))
		if code != 200 {
			t.Fatalf("batch %d: HTTP append %d: %v", i, code, httpOut)
		}
		wireOut, err := wc.Append(batch)
		if err != nil {
			t.Fatalf("batch %d: wire append: %v", i, err)
		}
		if float64(wireOut.Appended) != httpOut["appended"].(float64) ||
			float64(wireOut.Rejected) != httpOut["rejected"].(float64) ||
			float64(wireOut.Elements) != httpOut["elements"].(float64) ||
			float64(wireOut.OutOfOrder) != httpOut["outOfOrder"].(float64) {
			t.Fatalf("batch %d: wire %+v, http %v", i, wireOut, httpOut)
		}
	}
}

func TestWireDegradedEnvelopeMatchesHTTP(t *testing.T) {
	// Quarantine fixture: damage a sealed segment so queries degrade, then
	// compare the envelope both transports attach.
	dir := t.TempDir()
	st, err := segstore.Open(dir, segstore.Config{K: 64, Gamma: 2, Seed: 1, SealEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
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

	srv, _ := liveServer(t, dir)
	ts, wc := bothTransports(t, srv)

	got, err := wc.Point([]wire.PointQuery{{Event: 1, T: 15, Tau: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Envelope == nil || !got[0].Envelope.Degraded {
		t.Fatalf("wire point not degraded: %+v", got[0])
	}
	var out map[string]any
	if code := getJSON(t, ts.URL+"/v1/burstiness?e=1&t=15&tau=4", &out); code != 200 {
		t.Fatalf("HTTP %d: %v", code, out)
	}
	henv, ok := out["envelope"].(map[string]any)
	if !ok {
		t.Fatalf("http response carries no envelope: %v", out)
	}
	wenv := got[0].Envelope
	if got[0].Burstiness != out["burstiness"].(float64) {
		t.Fatalf("degraded burstiness: wire %v, http %v", got[0].Burstiness, out["burstiness"])
	}
	if wenv.Gamma != henv["gamma"].(float64) ||
		float64(wenv.Components) != henv["components"].(float64) ||
		wenv.Bound != henv["bound"].(float64) ||
		float64(wenv.MissingElements) != henv["missingElements"].(float64) ||
		wenv.Degraded != henv["degraded"].(bool) {
		t.Fatalf("envelope mismatch: wire %+v, http %v", wenv, henv)
	}
	missing := henv["missing"].([]any)
	if len(missing) != len(wenv.Missing) {
		t.Fatalf("missing spans: wire %v, http %v", wenv.Missing, missing)
	}
	for i, m := range wenv.Missing {
		hm := missing[i].(map[string]any)
		if float64(m.Start) != hm["Start"].(float64) || float64(m.End) != hm["End"].(float64) {
			t.Fatalf("missing span %d: wire %+v, http %v", i, m, hm)
		}
	}
	// The batch route answers the same query with the same float and the
	// same envelope.
	code, batch := postBatch(t, ts.URL, `{"queries":[{"event":1,"t":15,"tau":4}]}`)
	if code != 200 {
		t.Fatalf("batch: HTTP %d: %v", code, batch)
	}
	res := batch["results"].([]any)[0].(map[string]any)
	if res["burstiness"] != out["burstiness"] || !reflect.DeepEqual(res["envelope"], out["envelope"]) {
		t.Fatalf("degraded batch result %v, /v1/burstiness %v", res, out)
	}
}

// TestWireReadOnlyNackMatchesHTTP: one append verdict reads alike on both
// transports. For every wire.IngestResult kind — draining, read-only, a disk
// fault that outlives the retries, an internal error, accepted — the HTTP
// status and Retry-After header pin the NACK code and hint: the header is
// the verdict's hint rounded up to whole seconds, a refusal's message is the
// same on both and its NACK carries the store's envelope, an internal error
// has no hint, and an accepted batch neither.
func TestWireReadOnlyNackMatchesHTTP(t *testing.T) {
	failWith := func(err error) func(*server) {
		return func(s *server) {
			s.append = func(stream.Stream) segstore.BatchResult { return segstore.BatchResult{Err: err} }
		}
	}
	for _, tc := range []struct {
		name   string
		setup  func(*server)
		status int
		code   wire.NackCode // 0 when the batch is acknowledged
	}{
		{"draining", func(s *server) { s.ready.Store(false) }, http.StatusServiceUnavailable, wire.NackDraining},
		{"read-only", func(s *server) { s.readOnly.Store(true) }, http.StatusServiceUnavailable, wire.NackReadOnly},
		{"disk fault", failWith(fmt.Errorf("wal append: %w", syscall.ENOSPC)), http.StatusServiceUnavailable, wire.NackReadOnly},
		{"internal error", failWith(fmt.Errorf("admission mismatch")), http.StatusInternalServerError, wire.NackInternal},
		{"accepted", func(*server) {}, http.StatusOK, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One server per transport: a verdict may change what the next
			// append meets (a disk fault leaves the server read-only).
			fresh := func() *server {
				srv, err := newServer(serverOpts{K: 64, Gamma: 2, Seed: 1, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				tc.setup(srv)
				t.Cleanup(func() { srv.ready.Store(false) }) // a read-only server's prober exits
				return srv
			}
			ts, _ := bothTransports(t, fresh())
			resp, err := http.Post(ts.URL+"/v1/append", "application/json",
				strings.NewReader(`{"elements":[{"event":1,"time":10}]}`))
			if err != nil {
				t.Fatal(err)
			}
			var httpOut map[string]any
			if err := jsonDecode(resp, &httpOut); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP append %d, want %d: %v", resp.StatusCode, tc.status, httpOut)
			}
			header := resp.Header.Get("Retry-After")

			_, wc := bothTransports(t, fresh())
			_, werr := wc.Append(stream.Stream{{Event: 1, Time: 10}})
			if tc.code == 0 {
				if werr != nil || header != "" {
					t.Fatalf("accepted batch: wire %v, HTTP Retry-After %q", werr, header)
				}
				return
			}
			ne, ok := werr.(*wire.NackError)
			if !ok || ne.Code != tc.code {
				t.Fatalf("wire append = %v, want a %v NACK", werr, tc.code)
			}
			if ne.Message != httpOut["error"].(string) {
				t.Fatalf("message: wire %q, http %q", ne.Message, httpOut["error"])
			}
			if tc.code == wire.NackInternal {
				if ne.RetryAfter != 0 || header != "" {
					t.Fatalf("internal error carries a hint: wire %v, HTTP %q", ne.RetryAfter, header)
				}
				return
			}
			if want := strconv.FormatInt(int64((ne.RetryAfter+time.Second-1)/time.Second), 10); header != want {
				t.Fatalf("retry hint: wire %v (%s s), HTTP Retry-After %q", ne.RetryAfter, want, header)
			}
			if ne.Envelope == nil {
				t.Fatal("wire NACK carries no envelope")
			}
		})
	}
}
