package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func TestSegmentsCmdPrintsTierTable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/segments" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{
			"generation": 12,
			"segments": [
				{"id":7,"start":0,"end":99,"elements":400,"bytes":2048,"compacted":true,"tier":1,"gamma":8,"w":8,"res":3600},
				{"id":5,"start":100,"end":160,"elements":16,"bytes":4096}
			],
			"tiers": [
				{"tier":0,"segments":1,"elements":16,"bytes":4096,"gamma":2,"w":32,"res":1,"minT":100,"maxT":160},
				{"tier":1,"segments":1,"elements":400,"bytes":2048,"gamma":8,"w":8,"res":3600,"minT":0,"maxT":99}
			],
			"quarantined": [],
			"readOnly": false
		}`)
	}))
	defer ts.Close()

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	cmdErr := runSegmentsCmd([]string{"-http", ts.URL, "-full"})
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if cmdErr != nil {
		t.Fatalf("segments: %v\noutput:\n%s", cmdErr, out)
	}
	text := string(out)
	for _, want := range []string{
		"generation 12, 2 segments (0 quarantined)",
		"3600",            // tier 1 resolution
		"segment 7",       // -full listing
		"tier 1, [0, 99]", // fidelity metadata reaches the per-segment lines
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}

	if err := runSegmentsCmd([]string{}); err == nil {
		t.Fatal("segments without -http did not error")
	}
}
