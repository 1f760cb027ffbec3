package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"histburst/internal/wire"
)

func postBatch(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query/batch", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	return resp.StatusCode, out
}

func TestQueryBatchEndpoint(t *testing.T) {
	_, ts := liveServer(t, "")
	if code, _ := postAppend(t, ts.URL, `{"event":3,"time":100},{"event":3,"time":200},{"event":5,"time":200}`); code != 200 {
		t.Fatalf("seed append failed: %d", code)
	}
	// A batch result must match the single-query endpoint exactly, in
	// request order, with the default tau applied to omitted spans.
	code, out := postBatch(t, ts.URL,
		`{"queries":[{"event":3,"t":200,"tau":100},{"event":5,"t":200,"tau":100},{"event":3,"t":200}]}`)
	if code != 200 {
		t.Fatalf("batch: code=%d out=%v", code, out)
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %v", results)
	}
	for i, want := range []struct {
		event, tau float64
	}{{3, 100}, {5, 100}, {3, 86_400}} {
		res := results[i].(map[string]any)
		if res["event"].(float64) != want.event || res["tau"].(float64) != want.tau {
			t.Fatalf("result %d = %v, want event %v tau %v", i, res, want.event, want.tau)
		}
		single := getSingle(t, ts.URL, uint64(want.event), 200, int64(want.tau))
		if res["burstiness"].(float64) != single {
			t.Fatalf("result %d burstiness %v, single-query endpoint says %v", i, res["burstiness"], single)
		}
	}
}

func getSingle(t *testing.T, url string, e uint64, tm, tau int64) float64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/burstiness?e=%d&t=%d&tau=%d", url, e, tm, tau))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["burstiness"].(float64)
}

func TestQueryBatchLarge(t *testing.T) {
	_, ts := liveServer(t, "")
	if code, _ := postAppend(t, ts.URL, `{"event":3,"time":100},{"event":3,"time":200}`); code != 200 {
		t.Fatal("seed append failed")
	}
	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"event":%d,"t":%d,"tau":50}`, i%64, 100+i%200)
	}
	b.WriteString(`]}`)
	code, out := postBatch(t, ts.URL, b.String())
	if code != 200 {
		t.Fatalf("large batch: code=%d out=%v", code, out)
	}
	if n := len(out["results"].([]any)); n != 2000 {
		t.Fatalf("large batch returned %d results", n)
	}
}

func TestQueryBatchValidation(t *testing.T) {
	_, ts := liveServer(t, "")
	if code, _ := postBatch(t, ts.URL, `{"queries":[]}`); code != 400 {
		t.Fatalf("empty batch: code=%d", code)
	}
	if code, _ := postBatch(t, ts.URL, `not json`); code != 400 {
		t.Fatalf("garbage body: code=%d", code)
	}
	if code, _ := postBatch(t, ts.URL, `{"queries":[{"event":1,"t":5,"tau":-3}]}`); code != 400 {
		t.Fatalf("negative tau: code=%d", code)
	}
	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	for i := 0; i <= wire.MaxBatchQueries; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"event":1,"t":5}`)
	}
	b.WriteString(`]}`)
	if code, _ := postBatch(t, ts.URL, b.String()); code != 400 {
		t.Fatalf("oversized batch: code=%d", code)
	}
}
