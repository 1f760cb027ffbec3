package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func listenAt(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// appendSink records elements posted to a fake burstd, optionally failing
// the first `failFirst` requests with the given status.
type appendSink struct {
	got       atomic.Int64
	requests  atomic.Int64
	failFirst int64
	status    int
}

func (a *appendSink) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := a.requests.Add(1)
		if n <= a.failFirst {
			w.WriteHeader(a.status)
			return
		}
		var req struct {
			Elements []element `json:"elements"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(400)
			return
		}
		a.got.Add(int64(len(req.Elements)))
		fmt.Fprint(w, `{"appended":`, len(req.Elements), `}`)
	})
}

// testForwarder returns a forwarder with sleeps captured instead of slept.
func testForwarder(url string, batch int) (*forwarder, *[]time.Duration) {
	f := newForwarder(url, batch, nil)
	var slept []time.Duration
	f.sleep = func(d time.Duration) { slept = append(slept, d) }
	return f, &slept
}

func TestForwarderBatchesAndFlushes(t *testing.T) {
	sink := &appendSink{}
	ts := httptest.NewServer(sink.handler())
	defer ts.Close()
	f, _ := testForwarder(ts.URL, 3)
	for i := 0; i < 7; i++ {
		if err := f.add(uint64(i), int64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.flush(); err != nil {
		t.Fatal(err)
	}
	if sink.got.Load() != 7 {
		t.Fatalf("server saw %d elements, want 7", sink.got.Load())
	}
	// 3 + 3 full batches, then the 1-element tail.
	if sink.requests.Load() != 3 {
		t.Fatalf("%d requests, want 3", sink.requests.Load())
	}
	// flush with nothing queued is a no-op.
	if err := f.flush(); err != nil || sink.requests.Load() != 3 {
		t.Fatalf("empty flush: err=%v requests=%d", err, sink.requests.Load())
	}
}

func TestForwarderRetriesThrough503(t *testing.T) {
	sink := &appendSink{failFirst: 3, status: http.StatusServiceUnavailable}
	ts := httptest.NewServer(sink.handler())
	defer ts.Close()
	f, slept := testForwarder(ts.URL, 2)
	f.add(1, 10) //nolint:errcheck
	if err := f.add(2, 20); err != nil {
		t.Fatalf("batch should survive three 503s: %v", err)
	}
	if sink.got.Load() != 2 {
		t.Fatalf("server saw %d elements", sink.got.Load())
	}
	if len(*slept) != 3 {
		t.Fatalf("%d backoffs, want 3", len(*slept))
	}
	// Backoff grows (jitter keeps each within [d/2, 3d/2], and the base
	// doubles, so attempt 3 must exceed attempt 1's minimum ceiling).
	if (*slept)[2] <= (*slept)[0]/2 {
		t.Fatalf("backoff not growing: %v", *slept)
	}
}

func TestForwarderSurvivesServerRestart(t *testing.T) {
	// A dead listener (connection refused) for the first attempts, then a
	// live server on the same address — the restart scenario.
	sink := &appendSink{}
	ts := httptest.NewServer(sink.handler())
	addr := ts.URL
	ts.Close() // server "crashes"

	f, _ := testForwarder(addr+"/v1/append", 1)
	restarted := false
	var ts2 *httptest.Server
	f.sleep = func(time.Duration) {
		if !restarted {
			restarted = true
			l := httptest.NewUnstartedServer(sink.handler())
			l.Listener.Close()
			// Rebind the original address; if the OS refuses, skip.
			ln, err := listenAt(strings.TrimPrefix(addr, "http://"))
			if err != nil {
				t.Skipf("cannot rebind %s: %v", addr, err)
			}
			l.Listener = ln
			l.Start()
			ts2 = l
		}
	}
	if err := f.add(7, 70); err != nil {
		t.Fatalf("replay did not survive restart: %v", err)
	}
	if ts2 != nil {
		defer ts2.Close()
	}
	if sink.got.Load() != 1 {
		t.Fatalf("server saw %d elements", sink.got.Load())
	}
}

func TestForwarderGivesUpOnPermanentRejection(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()
	f, slept := testForwarder(ts.URL, 1)
	if err := f.add(1, 10); err == nil {
		t.Fatal("400 should be terminal")
	}
	if len(*slept) != 0 {
		t.Fatalf("retried a permanent rejection: %v", *slept)
	}
}

func TestForwarderGivesUpAfterRetryBudget(t *testing.T) {
	sink := &appendSink{failFirst: 1 << 30, status: http.StatusServiceUnavailable}
	ts := httptest.NewServer(sink.handler())
	defer ts.Close()
	f, slept := testForwarder(ts.URL, 1)
	f.retries = 4
	if err := f.add(1, 10); err == nil {
		t.Fatal("endless 503s should eventually error")
	}
	if len(*slept) != 3 {
		t.Fatalf("%d backoffs for 4 attempts, want 3", len(*slept))
	}
}

// TestForwarderHonoursRetryAfter: burstd puts a Retry-After on every 503 it
// sheds or refuses an append with, and the retry waits at least that long.
func TestForwarderHonoursRetryAfter(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"appended":1}`)
	}))
	defer ts.Close()
	f, slept := testForwarder(ts.URL, 1)
	if err := f.add(1, 10); err != nil {
		t.Fatalf("the batch did not get through the 503: %v", err)
	}
	if requests.Load() != 2 || len(*slept) != 1 {
		t.Fatalf("%d requests and backoffs %v, want 2 requests and one backoff", requests.Load(), *slept)
	}
	if (*slept)[0] < 2*time.Second {
		t.Fatalf("backed off %v after a 503 asking for 2s", (*slept)[0])
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	f := newForwarder("http://unused", 1, nil)
	for attempt := 1; attempt < 12; attempt++ {
		for i := 0; i < 50; i++ {
			d := f.backoff(attempt, 0)
			if d < f.base/2 || d > f.cap*3/2 {
				t.Fatalf("attempt %d: backoff %v outside [base/2, cap*1.5]", attempt, d)
			}
		}
	}
}

// TestProcessForwardsWhileReporting runs the full pipeline with a live
// sink: every mapped element reaches the server and local reports still
// work.
func TestProcessForwardsWhileReporting(t *testing.T) {
	sink := &appendSink{}
	ts := httptest.NewServer(sink.handler())
	defer ts.Close()
	f, _ := testForwarder(ts.URL, 16)
	input := "100 #a\n200 #a #b\n300 #b\n"
	var out strings.Builder
	if err := process(strings.NewReader(input), &out, 64, 100, 0, 2, 2, "", f); err != nil {
		t.Fatal(err)
	}
	if sink.got.Load() != 4 {
		t.Fatalf("server saw %d elements, want 4", sink.got.Load())
	}
	if !strings.Contains(out.String(), "forwarded 4 elements") {
		t.Fatalf("no forward summary:\n%s", out.String())
	}
}
