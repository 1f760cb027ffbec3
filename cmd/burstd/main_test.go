package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"histburst"
	"histburst/internal/stream"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := newServer(serverOpts{N: 20_000, Gamma: 8, Seed: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("status %d", code)
	}
	if stats["elements"].(float64) <= 0 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestBurstinessEndpoint(t *testing.T) {
	ts := testServer(t)
	var out map[string]any
	if code := getJSON(t, ts.URL+"/v1/burstiness?e=0&t=1728000&tau=86400", &out); code != 200 {
		t.Fatalf("status %d: %v", code, out)
	}
	if _, ok := out["burstiness"]; !ok {
		t.Fatalf("no burstiness field: %v", out)
	}
	// Missing parameter → 400 with error JSON.
	if code := getJSON(t, ts.URL+"/v1/burstiness?e=0", &out); code != 400 {
		t.Fatalf("missing t: status %d", code)
	}
	// Bad tau → 400.
	if code := getJSON(t, ts.URL+"/v1/burstiness?e=0&t=5&tau=0", &out); code != 400 {
		t.Fatalf("tau=0: status %d", code)
	}
}

func TestTimesAndEventsEndpoints(t *testing.T) {
	ts := testServer(t)
	var out map[string]any
	if code := getJSON(t, ts.URL+"/v1/times?e=0&theta=100", &out); code != 200 {
		t.Fatalf("times status %d: %v", code, out)
	}
	if code := getJSON(t, ts.URL+"/v1/events?t=1728000&theta=100", &out); code != 200 {
		t.Fatalf("events status %d: %v", code, out)
	}
	if _, ok := out["events"]; !ok {
		t.Fatalf("no events field: %v", out)
	}
	if code := getJSON(t, ts.URL+"/v1/events?t=1728000&theta=0", &out); code != 400 {
		t.Fatalf("theta=0: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/top?t=1728000&k=3", &out); code != 200 {
		t.Fatalf("top status %d: %v", code, out)
	}
	if evs, ok := out["events"].([]any); !ok || len(evs) != 3 {
		t.Fatalf("top events = %v", out["events"])
	}
	if code := getJSON(t, ts.URL+"/v1/top?t=5&k=0", &out); code != 400 {
		t.Fatalf("k=0: status %d", code)
	}
}

func TestUIPage(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{"histburst", "/v1/top", "svg"} {
		if !strings.Contains(body, want) {
			t.Fatalf("UI page missing %q", want)
		}
	}
	// Unknown paths are 404, not the UI.
	r2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 404 {
		t.Fatalf("unknown path status %d", r2.StatusCode)
	}
}

func TestConcurrentQueries(t *testing.T) {
	// The detector is read-only after Finish; hammer it from many
	// goroutines (run with -race in CI).
	ts := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Get(ts.URL + "/v1/burstiness?e=0&t=1728000")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
}

func TestServerFromSketchFile(t *testing.T) {
	// Build a tiny detector, save it, serve from the sketch.
	det, err := histburst.New(4, histburst.WithPBE2(2), histburst.WithSketchDims(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	det.Append(1, 10)
	det.Append(1, 20)
	path := filepath.Join(t.TempDir(), "d.hbsk")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	srv, err := newServer(serverOpts{Sketch: path, Gamma: 8, Seed: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if srv.store.N() != 2 {
		t.Fatalf("N = %d", srv.store.N())
	}
}

func TestServerFromDatasetFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.hbst")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Write(f, stream.Stream{{Event: 0, Time: 1}, {Event: 1, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	srv, err := newServer(serverOpts{In: path, Gamma: 8, Seed: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if srv.store.N() != 2 {
		t.Fatalf("N = %d", srv.store.N())
	}
	if _, err := newServer(serverOpts{In: "/no/such/file", Gamma: 8, Seed: 1, Logf: t.Logf}); err == nil {
		t.Fatal("missing file accepted")
	}
}
