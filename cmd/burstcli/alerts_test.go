package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"histburst/internal/pbe"
	"histburst/internal/subscribe"
)

func TestParseEvents(t *testing.T) {
	got, err := parseEvents(" 3, 7 ,12 ")
	if err != nil || len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 12 {
		t.Fatalf("parseEvents = %v, %v", got, err)
	}
	for _, bad := range []string{"", " ", ",", "3,x", "-1"} {
		if _, err := parseEvents(bad); err == nil {
			t.Errorf("parseEvents(%q) accepted", bad)
		}
	}
}

func TestAlertLineRendering(t *testing.T) {
	a := subscribe.Alert{Sub: 3, Event: 7, Time: 105, Burstiness: 12.5, Theta: 4, Tau: 100}
	line := alertLine(a)
	for _, want := range []string{"sub=3", "event=7", "t=105", "b≈12.5", "θ=4", "τ=100"} {
		if !strings.Contains(line, want) {
			t.Fatalf("alert line %q missing %q", line, want)
		}
	}
	a.Gap = 4
	a.Envelope = &pbe.ErrorEnvelope{Degraded: true, MissingElements: 9, Bound: 2.5}
	line = alertLine(a)
	if !strings.Contains(line, "+4 dropped") || !strings.Contains(line, "degraded") {
		t.Fatalf("gap/envelope not rendered: %q", line)
	}
}

func TestRunAlertCmdValidation(t *testing.T) {
	cases := []struct {
		cmd  string
		args []string
	}{
		{"subscribe", nil}, // no transport
		{"subscribe", []string{"-addr", "x", "-http", "y", "-events", "1"}},    // both transports
		{"subscribe", []string{"-http", "http://x"}},                           // no events
		{"subscribe", []string{"-addr", "x", "-events", "1", "-webhook", "w"}}, // webhook over wire
		{"unsubscribe", []string{"-http", "http://x"}},                         // no id
		{"alerts", []string{"-addr", "localhost:1"}},                           // wire alerts are conn-scoped
	}
	for _, c := range cases {
		if err := runAlertCmd(c.cmd, c.args); err == nil {
			t.Errorf("%s %v accepted", c.cmd, c.args)
		}
	}
}

// fakeAlertAPI emulates burstd's subscription endpoints and a two-alert SSE
// stream, so the HTTP legs of the subcommands run end to end without a
// server binary.
func fakeAlertAPI(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/subscriptions", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"id":42}`)
	})
	mux.HandleFunc("DELETE /v1/subscriptions/42", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("DELETE /v1/subscriptions/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such subscription", http.StatusNotFound)
	})
	mux.HandleFunc("GET /v1/alerts/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: gap\ndata: {\"dropped\":2}\n\n")
		fmt.Fprint(w, "id: 1\nevent: alert\ndata: {\"seq\":1,\"sub\":42,\"event\":7,\"t\":105,\"burstiness\":8,\"theta\":4,\"tau\":100}\n\n")
		fmt.Fprint(w, "id: 2\nevent: alert\ndata: {\"seq\":2,\"sub\":42,\"event\":7,\"t\":300,\"burstiness\":9,\"theta\":4,\"tau\":100}\n\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestHTTPSubcommandsEndToEnd(t *testing.T) {
	ts := fakeAlertAPI(t)
	id, err := httpSubscribe(ts.URL, []uint64{7}, 4, 100, 0, "")
	if err != nil || id != 42 {
		t.Fatalf("httpSubscribe = %d, %v", id, err)
	}
	// The stream carries a gap frame plus two alerts; -n 2 terminates after
	// both without waiting on the (closed) stream.
	if err := followSSE(ts.URL, "42", 2); err != nil {
		t.Fatalf("followSSE: %v", err)
	}
	if err := httpUnsubscribe(ts.URL, 42); err != nil {
		t.Fatalf("httpUnsubscribe: %v", err)
	}
	if err := httpUnsubscribe(ts.URL, 7); err == nil {
		t.Fatal("unsubscribe of unknown id succeeded")
	}
}
