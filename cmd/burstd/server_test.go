package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"histburst/internal/stream"
	"histburst/internal/subscribe"
	"histburst/internal/wire"
)

// liveServer builds an empty live-ingest server (no demo stream) with
// snapshots in a temp dir and returns it plus its test HTTP frontend.
func liveServer(t *testing.T, snapDir string) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(serverOpts{K: 64, Gamma: 2, Seed: 1, SnapDir: snapDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postAppend(t *testing.T, url string, elements string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/append", "application/json",
		bytes.NewBufferString(`{"elements":[`+elements+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode append response: %v", err)
	}
	return resp.StatusCode, out
}

func TestAppendEndpoint(t *testing.T) {
	_, ts := liveServer(t, "")
	code, out := postAppend(t, ts.URL, `{"event":3,"time":100},{"event":3,"time":200}`)
	if code != 200 || out["appended"].(float64) != 2 || out["elements"].(float64) != 2 {
		t.Fatalf("append: code=%d out=%v", code, out)
	}
	// The appended data is immediately queryable — and exactly, since it is
	// still head-resident: b(200) = F(200) − 2F(150) + F(100) = 2 − 2 + 1.
	resp, err := http.Get(ts.URL + "/v1/burstiness?e=3&t=200&tau=50")
	if err != nil {
		t.Fatal(err)
	}
	var q map[string]any
	json.NewDecoder(resp.Body).Decode(&q) //nolint:errcheck
	resp.Body.Close()
	if q["burstiness"].(float64) <= 0 {
		t.Fatalf("appended burst invisible: %v", q)
	}
	// Malformed and empty bodies are 400s.
	if code, _ := postAppend(t, ts.URL, ``); code != 400 {
		t.Fatalf("empty batch: code=%d", code)
	}
	resp2, err := http.Post(ts.URL+"/v1/append", "application/json", bytes.NewBufferString("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("garbage body: code=%d", resp2.StatusCode)
	}
}

// TestConcurrentAppendAndQuery hammers ingest and every query endpoint at
// once, over HTTP and over one pipelined HBP1 connection; run under -race
// this is the server's central thread-safety proof.
func TestConcurrentAppendAndQuery(t *testing.T) {
	srv, ts := liveServer(t, "")
	t.Cleanup(srv.closeAlerts)
	_, wc := bothTransports(t, srv)
	subID, err := wc.Subscribe(subscribe.Subscription{Events: []uint64{40}, Theta: 4, Tau: 100})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tm := int64(w*1000 + i*10)
				code, _ := postAppend(t, ts.URL, fmt.Sprintf(`{"event":%d,"time":%d}`, w, tm))
				if code != 200 {
					t.Errorf("append code %d", code)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			urls := []string{
				"/v1/burstiness?e=1&t=500&tau=100",
				"/v1/times?e=1&theta=1&tau=100",
				"/v1/events?t=500&theta=1&tau=100",
				"/v1/top?t=500&k=3&tau=100",
				"/v1/stats",
			}
			for i := 0; i < 25; i++ {
				resp, err := http.Get(ts.URL + urls[i%len(urls)])
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("%s: code %d", urls[i%len(urls)], resp.StatusCode)
					return
				}
			}
		}(w)
	}
	// The HBP1 side shares one connection: two goroutines keep POINT batches
	// pipelined while a third streams one multi-chunk append. Its tail is a
	// burst on event 40 later than every other element, so the store cannot
	// reject it and the standing query armed above must alert.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := make([]wire.PointQuery, 8)
			for i := range qs {
				qs[i] = wire.PointQuery{Event: uint64(i), T: 500, Tau: 100}
			}
			for i := 0; i < 25; i++ {
				if res, err := wc.Point(qs); err != nil || len(res) != len(qs) {
					t.Errorf("wire point: %d results, err=%v", len(res), err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make(stream.Stream, 0, 2*wire.DefaultChunk+16)
		for i := 0; i < 2*wire.DefaultChunk; i++ {
			batch = append(batch, stream.Element{Event: uint64(8 + i%8), Time: int64(i / 3)})
		}
		for i := 0; i < 16; i++ {
			batch = append(batch, stream.Element{Event: 40, Time: int64(4000 + i)})
		}
		res, err := wc.Append(batch)
		if err != nil || res.Appended+res.Rejected != int64(len(batch)) {
			t.Errorf("wire append: %+v err=%v", res, err)
		}
	}()
	wg.Wait()
	if a := popWireAlert(t, wc.Alerts()); a.Sub != subID || a.Event != 40 {
		t.Fatalf("wire alert = %+v, want subscription %d on event 40", a, subID)
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, ts := liveServer(t, dir)
	if code, _ := postAppend(t, ts.URL, `{"event":5,"time":100},{"event":5,"time":150}`); code != 200 {
		t.Fatalf("append failed: %d", code)
	}
	name, err := srv.checkpoint(false)
	if err != nil || name == "" {
		t.Fatalf("checkpoint: name=%q err=%v", name, err)
	}
	// Nothing appended since: the next periodic checkpoint is skipped.
	if name, err := srv.checkpoint(false); err != nil || name != "" {
		t.Fatalf("no-op checkpoint wrote %q err=%v", name, err)
	}
	// A forced (shutdown) checkpoint always writes.
	if name, err := srv.checkpoint(true); err != nil || name == "" {
		t.Fatalf("forced checkpoint: name=%q err=%v", name, err)
	}

	// A fresh server over the same directory recovers the ingested data
	// from the store manifest. A directory has one owner: the first store
	// goes first, or its post-seal WAL rotation deletes a log file between
	// the second Open's directory listing and its read.
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := newServer(serverOpts{K: 64, Gamma: 2, Seed: 1, SnapDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.store.N() != 2 {
		t.Fatalf("recovered N = %d, want 2", srv2.store.N())
	}
	b, err := srv2.store.Snapshot().Burstiness(5, 150, 100)
	if err != nil || b <= 0 {
		t.Fatalf("recovered burstiness = %v err=%v", b, err)
	}
	if err := srv2.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenChecksFlagsAgainstManifest: sketch flags that contradict an
// existing store fail the boot instead of being silently dropped, while unset
// ones defer to the manifest.
func TestReopenChecksFlagsAgainstManifest(t *testing.T) {
	dir := t.TempDir()
	srv, ts := liveServer(t, dir) // K=64
	if code, _ := postAppend(t, ts.URL, `{"event":5,"time":100}`); code != 200 {
		t.Fatalf("append failed: %d", code)
	}
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	if srv, err := newServer(serverOpts{K: 128, Gamma: 2, Seed: 1, SnapDir: dir, Logf: t.Logf}); err == nil {
		srv.store.Close() //nolint:errcheck
		t.Fatal("reopening a K=64 store with K=128 succeeded")
	} else if !strings.Contains(err.Error(), "conflicts with existing store") {
		t.Fatalf("mismatched K failed for the wrong reason: %v", err)
	}
	srv2, err := newServer(serverOpts{K: 0, SnapDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopening with K unset: %v", err)
	}
	if got := srv2.store.Params(); got.K != 64 || got.Gamma != 2 {
		t.Fatalf("manifest params not adopted: %+v", got)
	}
	if srv2.store.N() != 1 {
		t.Fatalf("recovered N = %d, want 1", srv2.store.N())
	}
	if err := srv2.store.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadyzAndShutdownRefusesAppends(t *testing.T) {
	srv, ts := liveServer(t, "")
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: code %d", probe, resp.StatusCode)
		}
	}
	srv.ready.Store(false) // draining
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("readyz while draining: code %d", resp.StatusCode)
	}
	if code, _ := postAppend(t, ts.URL, `{"event":1,"time":1}`); code != 503 {
		t.Fatalf("append while draining: code %d", code)
	}
	// healthz stays 200: the process is alive, just not accepting work.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("healthz while draining: code %d", resp2.StatusCode)
	}
}

func TestLoadSheddingReturns503(t *testing.T) {
	srv := &server{inflight: make(chan struct{}, 1), logf: t.Logf}
	block := make(chan struct{})
	entered := make(chan struct{})
	h := srv.limit(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer close(block)

	go http.Get(ts.URL) //nolint:errcheck
	<-entered           // the one slot is now held
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("second request: code %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After hint")
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	srv := &server{logf: t.Logf}
	h := srv.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("code %d, want 500", resp.StatusCode)
	}
}
