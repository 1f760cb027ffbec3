package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"histburst/internal/segstore"
	"histburst/internal/stream"
)

// getBody fetches a URL and decodes the JSON body alongside the status
// code, reusing main_test's getJSON helper.
func getBody(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	var out map[string]any
	return getJSON(t, url, &out), out
}

// TestFailedCheckpointRetried: a periodic checkpoint that failed to commit
// is retried by the next one, appends or none, and once it commits /readyz
// is 200 again.
func TestFailedCheckpointRetried(t *testing.T) {
	srv, ts := liveServer(t, t.TempDir())
	if code, _ := postAppend(t, ts.URL, `{"event":5,"time":100},{"event":5,"time":150}`); code != 200 {
		t.Fatalf("append failed: %d", code)
	}
	// A non-empty directory where the manifest goes fails its rename.
	manifest := filepath.Join(srv.store.Dir(), segstore.ManifestName)
	if err := os.MkdirAll(filepath.Join(manifest, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.checkpoint(false); err == nil {
		t.Fatal("checkpoint committed with no manifest to write")
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after a failed checkpoint: %d, want 503", code)
	}
	if err := os.RemoveAll(manifest); err != nil {
		t.Fatal(err)
	}
	if name, err := srv.checkpoint(false); err != nil || name == "" {
		t.Fatalf("the retried checkpoint wrote %q err=%v", name, err)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after the retried checkpoint: %d, want 200", code)
	}
}

func TestDiskFaultFlipsReadOnlyAndRecovers(t *testing.T) {
	srv, ts := liveServer(t, t.TempDir())
	srv.probeEvery = 10 * time.Millisecond

	// Inject a persistent ENOSPC through the ingest seam. The real stager
	// stays reachable for the recovery phase.
	var faulty atomic.Bool
	real := srv.append
	srv.append = func(elems stream.Stream) segstore.BatchResult {
		if faulty.Load() {
			return segstore.BatchResult{Err: fmt.Errorf("wal append: %w", syscall.ENOSPC)}
		}
		return real(elems)
	}
	faulty.Store(true)

	// The append retries through the backoff budget, then degrades: 503
	// with a Retry-After hint, not a 500.
	resp, err := http.Post(ts.URL+"/v1/append", "application/json",
		strings.NewReader(`{"elements":[{"event":1,"time":10}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted append answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded append carries no Retry-After")
	}
	if !srv.readOnly.Load() {
		t.Fatal("server did not flip read-only")
	}

	// Read-only mode: appends bounce immediately, queries keep serving,
	// readyz says no, healthz stays alive but reports degraded.
	if code, _ := postAppend(t, ts.URL, `{"event":1,"time":11}`); code != http.StatusServiceUnavailable {
		t.Fatalf("read-only append answered %d, want 503", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/stats"); code != http.StatusOK {
		t.Fatalf("query during read-only answered %d, want 200", code)
	}
	if code, body := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || body["readOnly"] != true {
		t.Fatalf("readyz during read-only: %d %v", code, body)
	}
	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("healthz during read-only: %d %v", code, body)
	}

	// The disk recovers; the prober notices and restores write service.
	faulty.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for srv.readOnly.Load() {
		if time.Now().After(deadline) {
			t.Fatal("prober never lifted read-only mode")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, out := postAppend(t, ts.URL, `{"event":1,"time":12}`); code != http.StatusOK || out["appended"].(float64) != 1 {
		t.Fatalf("append after recovery: %d %v", code, out)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after recovery answered %d, want 200", code)
	}
}

func TestNonDiskAppendErrorStaysA500(t *testing.T) {
	srv, ts := liveServer(t, "")
	srv.append = func(stream.Stream) segstore.BatchResult {
		return segstore.BatchResult{Err: fmt.Errorf("admission mismatch")}
	}
	resp, err := http.Post(ts.URL+"/v1/append", "application/json",
		strings.NewReader(`{"elements":[{"event":1,"time":10}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("logic error answered %d, want 500", resp.StatusCode)
	}
	if srv.readOnly.Load() {
		t.Fatal("logic error flipped read-only")
	}
}

func TestQuarantineSurfacesOverHTTP(t *testing.T) {
	// Damage one sealed segment on disk, let the server's open-time check
	// quarantine it, and read the degradation back through every surface.
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

	srv, ts := liveServer(t, dir)
	if h := srv.store.Health(); h.Quarantined != 1 {
		t.Fatalf("store health after damaged open: %+v", h)
	}
	code, body := getBody(t, ts.URL+"/v1/segments")
	if code != http.StatusOK {
		t.Fatalf("/v1/segments answered %d", code)
	}
	if q, ok := body["quarantined"].([]any); !ok || len(q) != 1 {
		t.Fatalf("/v1/segments quarantined = %v", body["quarantined"])
	}
	env, ok := body["envelope"].(map[string]any)
	if !ok || env["degraded"] != true {
		t.Fatalf("/v1/segments envelope = %v", body["envelope"])
	}
	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("healthz with quarantine: %d %v", code, body)
	}
	// Quarantine alone does not make the node unready — it still ingests
	// and answers; only read-only or a wedged store pulls it from rotation.
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz with quarantine answered %d, want 200", code)
	}
	// Point queries answer, with the widened envelope attached.
	code, q := getBody(t, ts.URL+"/v1/burstiness?e=1&t=15&tau=4")
	if code != http.StatusOK {
		t.Fatalf("burstiness with quarantine answered %d", code)
	}
	if _, ok := q["envelope"].(map[string]any); !ok {
		t.Fatalf("degraded burstiness response carries no envelope: %v", q)
	}
}
