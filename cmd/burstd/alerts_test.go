package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"histburst/internal/segstore"
	"histburst/internal/subscribe"
)

// sseMsg is one parsed server-sent event.
type sseMsg struct {
	event string
	data  string
}

// sseStream opens an alert stream and feeds its parsed events into the
// returned channel; the stream is torn down with the test. Do returns once
// the preamble is written, so the subscription is attached — alerts fired
// after this call cannot be missed.
func sseStream(t *testing.T, url string) <-chan sseMsg {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("alert stream: %s, Content-Type %q", resp.Status, resp.Header.Get("Content-Type"))
	}
	ch := make(chan sseMsg, 64)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var ev string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ch <- sseMsg{event: ev, data: strings.TrimPrefix(line, "data: ")}
				ev = ""
			}
		}
	}()
	return ch
}

// nextSSEAlert waits for the next alert event on an SSE stream.
func nextSSEAlert(t *testing.T, ch <-chan sseMsg) subscribe.Alert {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("SSE stream closed before the alert arrived")
		}
		if m.event != "alert" {
			t.Fatalf("SSE event %q (%s), want alert", m.event, m.data)
		}
		var a subscribe.Alert
		if err := json.Unmarshal([]byte(m.data), &a); err != nil {
			t.Fatalf("SSE alert payload %q: %v", m.data, err)
		}
		return a
	case <-time.After(10 * time.Second):
		t.Fatal("no SSE alert within 10s")
	}
	return subscribe.Alert{}
}

// recvAlert waits for an alert on a plain channel (the webhook receiver).
func recvAlert(t *testing.T, ch <-chan subscribe.Alert, what string) subscribe.Alert {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(10 * time.Second):
		t.Fatalf("no %s alert within 10s", what)
	}
	return subscribe.Alert{}
}

// popWireAlert drains one unsolicited ALERT frame from a wire client.
func popWireAlert(t *testing.T, q *subscribe.Queue) subscribe.Alert {
	t.Helper()
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	defer timer.Stop()
	a, ok := q.Pop(stop)
	if !ok {
		t.Fatal("no wire alert arrived (queue closed or timeout)")
	}
	return a
}

// postSubscription registers a standing query over HTTP and returns its id.
func postSubscription(t *testing.T, base, body string) uint64 {
	t.Helper()
	resp, err := http.Post(base+"/v1/subscriptions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated || out.ID == 0 {
		t.Fatalf("register: %s, id %d", resp.Status, out.ID)
	}
	return out.ID
}

// TestAlertThreeChannels is the end-to-end acceptance path: two standing
// queries share one event but differ in θ, and each fires independently —
// over webhook + SSE for the HTTP-registered one, over an unsolicited wire
// ALERT frame for the connection-scoped one — within the very commit batch
// that crossed its threshold. The sustained burst between edges never
// re-fires, and after the dedup window a fresh burst does.
func TestAlertThreeChannels(t *testing.T) {
	srv, err := newServer(serverOpts{K: 64, Gamma: 2, Seed: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hooked := make(chan subscribe.Alert, 16)
	wh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var a subscribe.Alert
		if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		hooked <- a
	}))
	t.Cleanup(wh.Close)
	t.Cleanup(srv.closeAlerts) // before wh.Close: the webhook workers drain out first
	ts, wc := bothTransports(t, srv)

	id1 := postSubscription(t, ts.URL, fmt.Sprintf(
		`{"events":[7],"theta":4,"tau":100,"dedup":1000,"webhook":%q}`, wh.URL))
	sse := sseStream(t, fmt.Sprintf("%s/v1/alerts/stream?ids=%d", ts.URL, id1))
	id2, err := wc.Subscribe(subscribe.Subscription{Events: []uint64{7}, Theta: 12, Tau: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Alerts().Stats().Armed; got != 2 {
		t.Fatalf("armed = %d, want 2", got)
	}

	// Burst 1: six occurrences cross θ=4 but not θ=12 — only id1 fires.
	code, out := postAppend(t, ts.URL,
		`{"event":7,"time":100},{"event":7,"time":101},{"event":7,"time":102},`+
			`{"event":7,"time":103},{"event":7,"time":104},{"event":7,"time":105}`)
	if code != 200 || out["appended"].(float64) != 6 {
		t.Fatalf("append: %d %v", code, out)
	}
	a := nextSSEAlert(t, sse)
	if a.Sub != id1 || a.Event != 7 || a.Time != 105 || a.Burstiness < 4 {
		t.Fatalf("SSE alert = %+v", a)
	}
	w := recvAlert(t, hooked, "webhook")
	if w.Sub != id1 || w.Time != 105 {
		t.Fatalf("webhook alert = %+v", w)
	}
	// Evaluation is synchronous with the append ack, so the fire counter is
	// already settled: exactly one alert, i.e. the wire subscription stayed
	// silent below its threshold.
	if got := srv.Alerts().Stats().Fired; got != 1 {
		t.Fatalf("fired = %d after burst 1, want 1", got)
	}

	// Burst 2 sustains id1 (no re-fire) and lifts the count past θ=12: the
	// wire subscription's rising edge.
	var parts []string
	for i := 0; i < 10; i++ {
		parts = append(parts, fmt.Sprintf(`{"event":7,"time":%d}`, 106+i))
	}
	if code, _ := postAppend(t, ts.URL, strings.Join(parts, ",")); code != 200 {
		t.Fatalf("append burst 2: %d", code)
	}
	wa := popWireAlert(t, wc.Alerts())
	if wa.Sub != id2 || wa.Event != 7 || wa.Time != 115 || wa.Burstiness < 12 {
		t.Fatalf("wire alert = %+v", wa)
	}
	if got := srv.Alerts().Stats().Fired; got != 2 {
		t.Fatalf("fired = %d after burst 2, want 2 (sustained burst re-fired)", got)
	}

	// Quiet gap past the dedup window, then a fresh burst: id1's edge
	// re-armed and 3006−105 ≥ dedup, so it fires again; θ=12 stays quiet.
	if code, _ := postAppend(t, ts.URL, `{"event":7,"time":3000}`); code != 200 {
		t.Fatal("lone element refused")
	}
	parts = parts[:0]
	for i := 0; i < 6; i++ {
		parts = append(parts, fmt.Sprintf(`{"event":7,"time":%d}`, 3001+i))
	}
	if code, _ := postAppend(t, ts.URL, strings.Join(parts, ",")); code != 200 {
		t.Fatal("append burst 3 refused")
	}
	a2 := nextSSEAlert(t, sse)
	if a2.Sub != id1 || a2.Time != 3006 {
		t.Fatalf("re-fire SSE alert = %+v", a2)
	}
	w2 := recvAlert(t, hooked, "webhook")
	if w2.Sub != id1 || w2.Time != 3006 {
		t.Fatalf("re-fire webhook alert = %+v", w2)
	}
	if got := srv.Alerts().Stats().Fired; got != 3 {
		t.Fatalf("fired = %d at end, want 3", got)
	}
}

// TestAlertCarriesDegradedEnvelope pins the degraded-mode contract on the
// push path: with a quarantined segment below the alert time, the alert
// carries the same γ/quarantine envelope a query would.
func TestAlertCarriesDegradedEnvelope(t *testing.T) {
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
	t.Cleanup(srv.closeAlerts)
	_, wc := bothTransports(t, srv)
	if _, err := wc.Subscribe(subscribe.Subscription{Events: []uint64{2}, Theta: 4, Tau: 50}); err != nil {
		t.Fatal(err)
	}
	var batch []string
	for i := 0; i < 6; i++ {
		batch = append(batch, fmt.Sprintf(`{"event":2,"time":%d}`, 100+i))
	}
	if code, out := postAppend(t, ts.URL, strings.Join(batch, ",")); code != 200 {
		t.Fatalf("append: %d %v", code, out)
	}
	a := popWireAlert(t, wc.Alerts())
	if a.Envelope == nil || !a.Envelope.Degraded {
		t.Fatalf("degraded-mode alert carries no quarantine envelope: %+v", a)
	}
	if a.Envelope.Gamma != 2 || a.Envelope.MissingElements == 0 {
		t.Fatalf("envelope = %+v", a.Envelope)
	}
}

// TestSubscriptionHTTPLifecycle covers the registry endpoints end to end.
func TestSubscriptionHTTPLifecycle(t *testing.T) {
	srv, ts := liveServer(t, "")
	t.Cleanup(srv.closeAlerts)

	id := postSubscription(t, ts.URL, `{"events":[65,2],"theta":3,"tau":60}`)
	var list struct {
		Subscriptions []subscribe.Subscription `json:"subscriptions"`
	}
	if code := getJSON(t, ts.URL+"/v1/subscriptions", &list); code != 200 {
		t.Fatalf("list: %d", code)
	}
	if len(list.Subscriptions) != 1 || list.Subscriptions[0].ID != id {
		t.Fatalf("list = %+v", list)
	}
	// Event 65 folded into the K=64 id space and the set came back sorted.
	if got := list.Subscriptions[0].Events; len(got) != 2 || got[0] != 65%64 || got[1] != 2 {
		t.Fatalf("folded events = %v", got)
	}

	// The armed count and channel stats surface on the health and segment
	// endpoints.
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	al, ok := health["alerts"].(map[string]any)
	if !ok || al["armed"].(float64) != 1 {
		t.Fatalf("healthz alerts = %v", health["alerts"])
	}
	var segsOut map[string]any
	if code := getJSON(t, ts.URL+"/v1/segments", &segsOut); code != 200 {
		t.Fatalf("segments: %d", code)
	}
	if _, ok := segsOut["alerts"].(map[string]any); !ok {
		t.Fatalf("segments response carries no alerts block: %v", segsOut)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %s", resp.Status)
	}
	if got := srv.Alerts().Stats().Armed; got != 0 {
		t.Fatalf("armed = %d after delete", got)
	}
	resp, err = http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %s, want 404", resp.Status)
	}

	// Validation errors answer 400: junk body, empty event set, bad webhook.
	for _, body := range []string{`{`, `{"events":[],"theta":1,"tau":5}`, `{"events":[1],"theta":1,"tau":5,"webhook":"not a url"}`} {
		resp, err := http.Post(ts.URL+"/v1/subscriptions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: %s, want 400", body, resp.Status)
		}
	}
}

// TestStalledSSESubscriberDoesNotBlockIngest opens an alert stream and never
// reads it while alerts flood out. The subscriber's bounded queue must
// drop-oldest — ingest keeps acking, the hub keeps firing, and the flood
// takes at most twice as long as it does with no standing query armed.
func TestStalledSSESubscriberDoesNotBlockIngest(t *testing.T) {
	// 200 batches, each far enough past the last that every window decays
	// and all 16 events re-fire: 3200 alerts against a queue of 256.
	flood := func(url string, round int64) time.Duration {
		start := time.Now()
		tbase := 1000 + round*200*100
		for batch := 0; batch < 200; batch++ {
			var parts []string
			for j := 0; j < 2; j++ {
				for e := 0; e < 16; e++ {
					parts = append(parts, fmt.Sprintf(`{"event":%d,"time":%d}`, e, tbase+int64(j)))
				}
			}
			code, out := postAppend(t, url, strings.Join(parts, ","))
			if code != 200 || out["appended"].(float64) != 32 {
				t.Fatalf("batch %d: %d %v", batch, code, out)
			}
			tbase += 100 // > 2τ: the windows decay and the edges re-arm
		}
		return time.Since(start)
	}
	_, bareTS := liveServer(t, "")

	srv, ts := liveServer(t, "")
	t.Cleanup(srv.closeAlerts)
	var events []string
	for e := 0; e < 16; e++ {
		events = append(events, fmt.Sprintf("%d", e))
	}
	postSubscription(t, ts.URL, `{"events":[`+strings.Join(events, ",")+`],"theta":1,"tau":10}`)

	// Attach the stream, read the preamble headers, then stall forever.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/alerts/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	// A second subscriber whose consumer never pops at all: its bounded
	// queue must shed the flood as drop-oldest, visible in the stats.
	stuck := srv.Alerts().AttachAll(subscribe.ChannelSSE, 4)
	defer srv.Alerts().Detach(stuck)

	// A leg is ~25 ms without the race detector, short enough for a busy
	// box to stretch one past 1.8× the other, so the pair is timed up to
	// three times; a subscriber that backpressures ingest loses every round.
	for round := int64(0); ; round++ {
		bare, stalled := flood(bareTS.URL, round), flood(ts.URL, round)
		t.Logf("flood %d: %v bare, %v stalled", round, bare, stalled)
		if stalled <= 2*bare {
			break
		}
		if round == 2 {
			t.Fatalf("the flood took %v with a stalled subscriber, %v without (> 2×)", stalled, bare)
		}
	}
	st := srv.Alerts().Stats()
	if st.Fired < 3000 {
		t.Fatalf("fired = %d, want ~3200", st.Fired)
	}
	sse := st.Channels[subscribe.ChannelSSE]
	if sse.Dropped < 3000 {
		t.Fatalf("stuck queue shed %d alerts, want ~3196: %+v", sse.Dropped, sse)
	}
	if stuck.Len() > 4 {
		t.Fatalf("stuck queue depth %d exceeds its cap 4", stuck.Len())
	}
}

// TestSSEGapRendering pins the wire format of a dropped-alert gap marker.
func TestSSEGapRendering(t *testing.T) {
	a := subscribe.Alert{Seq: 5, Sub: 2, Event: 7, Time: 100, Burstiness: 6, Theta: 4, Tau: 60, Gap: 3}
	out := string(sseEvent(a))
	if !strings.HasPrefix(out, "event: gap\ndata: {\"dropped\":3}\n\n") {
		t.Fatalf("gap marker missing or malformed:\n%s", out)
	}
	rest := strings.TrimPrefix(out, "event: gap\ndata: {\"dropped\":3}\n\n")
	if !strings.HasPrefix(rest, "id: 5\nevent: alert\ndata: ") || !strings.HasSuffix(rest, "\n\n") {
		t.Fatalf("alert frame malformed:\n%s", rest)
	}
	var back subscribe.Alert
	data := strings.TrimSuffix(strings.TrimPrefix(rest, "id: 5\nevent: alert\ndata: "), "\n\n")
	if err := json.Unmarshal([]byte(data), &back); err != nil {
		t.Fatalf("alert payload %q: %v", data, err)
	}
	if back != a {
		t.Fatalf("round trip: %+v != %+v", back, a)
	}

	a.Gap = 0
	if out := string(sseEvent(a)); strings.Contains(out, "event: gap") {
		t.Fatalf("gap marker on a gapless alert:\n%s", out)
	}
}
