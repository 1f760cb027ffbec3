package subscribe

import (
	"math"
	"testing"

	"histburst/internal/segstore"
	"histburst/internal/stream"
)

// burst builds n elements of event e at consecutive times starting at t0.
func burst(e uint64, t0 int64, n int) stream.Stream {
	out := make(stream.Stream, n)
	for i := range out {
		out[i] = stream.Element{Event: e, Time: t0 + int64(i)}
	}
	return out
}

// drain pops every queued alert without blocking.
func drain(q *Queue) []Alert {
	stop := make(chan struct{})
	close(stop)
	var out []Alert
	for {
		a, ok := q.Pop(stop)
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

func TestRisingEdgeFiresOnceAcrossSustainedBurst(t *testing.T) {
	h := NewHub(Config{})
	sub, err := h.Register(Subscription{Events: []uint64{7}, Theta: 4, Tau: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := h.AttachAll(ChannelSSE, 16)

	h.Evaluate(burst(7, 100, 5)) // crosses θ=4: the rising edge
	alerts := drain(q)
	if len(alerts) != 1 {
		t.Fatalf("rising edge: got %d alerts, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Sub != sub.ID || a.Event != 7 || a.Time != 104 || a.Burstiness < 4 {
		t.Fatalf("alert = %+v", a)
	}

	// Sustain the burst across three more commits: still above θ, no
	// re-fire.
	h.Evaluate(burst(7, 105, 5))
	h.Evaluate(burst(7, 110, 5))
	h.Evaluate(burst(7, 115, 5))
	if alerts := drain(q); len(alerts) != 0 {
		t.Fatalf("sustained burst re-fired: %+v", alerts)
	}
	if st := h.Stats(); st.Fired != 1 || st.Armed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEdgeRearmsAfterDedupWindow(t *testing.T) {
	h := NewHub(Config{})
	if _, err := h.Register(Subscription{Events: []uint64{3}, Theta: 4, Tau: 16, Dedup: 500}); err != nil {
		t.Fatal(err)
	}
	q := h.AttachAll(ChannelSSE, 16)

	h.Evaluate(burst(3, 100, 5)) // first fire at t=104
	if got := len(drain(q)); got != 1 {
		t.Fatalf("first edge: %d alerts", got)
	}

	// The burst dies (a lone element far ahead decays the window to zero),
	// then a new burst rises *inside* the dedup window: suppressed.
	h.Evaluate(burst(3, 300, 1))
	h.Evaluate(burst(3, 301, 5))
	if alerts := drain(q); len(alerts) != 0 {
		t.Fatalf("edge inside dedup window fired: %+v", alerts)
	}

	// A third burst past the window (104 + 500 < 700): fires again.
	h.Evaluate(burst(3, 700, 1))
	h.Evaluate(burst(3, 701, 5))
	alerts := drain(q)
	if len(alerts) != 1 {
		t.Fatalf("re-armed edge: got %d alerts, want 1", len(alerts))
	}
	if alerts[0].Time != 705 {
		t.Fatalf("re-fire time = %d, want 705", alerts[0].Time)
	}
}

func TestZeroDedupFiresEveryEdge(t *testing.T) {
	h := NewHub(Config{})
	if _, err := h.Register(Subscription{Events: []uint64{3}, Theta: 4, Tau: 16}); err != nil {
		t.Fatal(err)
	}
	q := h.AttachAll(ChannelSSE, 16)
	h.Evaluate(burst(3, 100, 5))
	h.Evaluate(burst(3, 300, 1)) // decays below θ
	h.Evaluate(burst(3, 301, 5))
	if got := len(drain(q)); got != 2 {
		t.Fatalf("got %d alerts, want 2 (one per edge)", got)
	}
}

func TestSharedEventFiresIndependently(t *testing.T) {
	h := NewHub(Config{})
	a, err := h.Register(Subscription{Events: []uint64{7}, Theta: 4, Tau: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Register(Subscription{Events: []uint64{7}, Theta: 12, Tau: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := h.AttachAll(ChannelSSE, 16)

	// 5 elements crosses A's θ=4 but not B's θ=12.
	h.Evaluate(burst(7, 100, 5))
	alerts := drain(q)
	if len(alerts) != 1 || alerts[0].Sub != a.ID {
		t.Fatalf("first batch alerts = %+v, want one for sub %d", alerts, a.ID)
	}

	// 10 more inside τ pushes the window count past 12: B fires, A is
	// already above and stays quiet.
	h.Evaluate(burst(7, 105, 10))
	alerts = drain(q)
	if len(alerts) != 1 || alerts[0].Sub != b.ID {
		t.Fatalf("second batch alerts = %+v, want one for sub %d", alerts, b.ID)
	}
}

func TestUnregisterDisarms(t *testing.T) {
	h := NewHub(Config{})
	sub, err := h.Register(Subscription{Events: []uint64{5}, Theta: 2, Tau: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := h.AttachAll(ChannelSSE, 16)
	if !h.Unregister(sub.ID) {
		t.Fatal("unregister reported not armed")
	}
	if h.Unregister(sub.ID) {
		t.Fatal("double unregister reported armed")
	}
	h.Evaluate(burst(5, 100, 8))
	if alerts := drain(q); len(alerts) != 0 {
		t.Fatalf("disarmed subscription fired: %+v", alerts)
	}
	if st := h.Stats(); st.Armed != 0 {
		t.Fatalf("armed = %d, want 0", st.Armed)
	}
}

func TestAlertCarriesDegradedEnvelope(t *testing.T) {
	env := &segstore.ErrorEnvelope{Gamma: 8, Degraded: true, MissingElements: 42}
	h := NewHub(Config{Envelope: func(t int64) *segstore.ErrorEnvelope { return env }})
	if _, err := h.Register(Subscription{Events: []uint64{1}, Theta: 2, Tau: 16}); err != nil {
		t.Fatal(err)
	}
	q := h.AttachAll(ChannelSSE, 16)
	h.Evaluate(burst(1, 50, 4))
	alerts := drain(q)
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts, want 1", len(alerts))
	}
	got := alerts[0].Envelope
	if got == nil || !got.Degraded || got.MissingElements != 42 {
		t.Fatalf("alert envelope = %+v, want the degraded envelope", got)
	}
}

func TestFoldMapsEventIDs(t *testing.T) {
	h := NewHub(Config{Fold: func(e uint64) uint64 { return e % 8 }})
	sub, err := h.Register(Subscription{Events: []uint64{15, 7, 23}, Theta: 2, Tau: 16})
	if err != nil {
		t.Fatal(err)
	}
	// 15, 7, 23 all fold to 7 and dedupe to one watched id.
	if len(sub.Events) != 1 || sub.Events[0] != 7 {
		t.Fatalf("folded events = %v, want [7]", sub.Events)
	}
	q := h.AttachAll(ChannelSSE, 16)
	h.Evaluate(burst(7, 10, 4))
	if got := len(drain(q)); got != 1 {
		t.Fatalf("folded subscription: %d alerts, want 1", got)
	}
	// Committed batches carry whatever ids clients appended; the evaluator
	// folds them too, so event 31 (≡ 7 mod 8) sustains the same window and
	// a fresh burst of it re-fires only after the edge re-arms.
	h.Evaluate(burst(31, 14, 4))
	if got := drain(q); len(got) != 0 {
		t.Fatalf("sustained burst under a folded alias re-fired: %+v", got)
	}
	h.Evaluate(burst(31, 1000, 4)) // long gap: window decayed, edge re-armed
	got := drain(q)
	if len(got) != 1 {
		t.Fatalf("folded batch ids: %d alerts, want 1", len(got))
	}
	if got[0].Event != 7 {
		t.Fatalf("alert event = %d, want the folded id 7", got[0].Event)
	}
}

func TestRegisterValidation(t *testing.T) {
	h := NewHub(Config{MaxSubs: 1})
	bad := []Subscription{
		{Theta: 1, Tau: 1},                                                         // no events
		{Events: []uint64{1}, Theta: 0, Tau: 1},                                    // θ ≤ 0
		{Events: []uint64{1}, Theta: math.NaN(), Tau: 1},                           // θ NaN
		{Events: []uint64{1}, Theta: 1, Tau: 0},                                    // τ ≤ 0
		{Events: []uint64{1}, Theta: 1, Tau: 1, Dedup: -1},                         // dedup < 0
		{Events: []uint64{1}, Theta: 1, Tau: 1, Webhook: "/hooks/burst"},           // relative URL
		{Events: []uint64{1}, Theta: 1, Tau: 1, Webhook: "ftp://example.com/hook"}, // not http(s)
		{Events: []uint64{1}, Theta: 1, Tau: 1, Webhook: "http:///hook"},           // empty host
	}
	for i, s := range bad {
		if _, err := h.Register(s); err == nil {
			t.Fatalf("case %d: bad subscription %+v registered", i, s)
		}
	}
	if _, err := h.Register(Subscription{Events: []uint64{1}, Theta: 1, Tau: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register(Subscription{Events: []uint64{2}, Theta: 1, Tau: 1}); err == nil {
		t.Fatal("registration past MaxSubs accepted")
	}
}

func TestWatchRoutesPerSubscription(t *testing.T) {
	h := NewHub(Config{})
	a, _ := h.Register(Subscription{Events: []uint64{1}, Theta: 2, Tau: 16})
	b, _ := h.Register(Subscription{Events: []uint64{2}, Theta: 2, Tau: 16})
	qa := h.Attach(ChannelWire, 16)
	h.Watch(qa, a.ID)
	qall := h.AttachAll(ChannelSSE, 16)

	h.Evaluate(append(burst(1, 100, 4), burst(2, 100, 4)...))
	if alerts := drain(qa); len(alerts) != 1 || alerts[0].Sub != a.ID {
		t.Fatalf("watched queue alerts = %+v, want only sub %d", alerts, a.ID)
	}
	if alerts := drain(qall); len(alerts) != 2 {
		t.Fatalf("firehose queue got %d alerts, want 2", len(alerts))
	}

	// Unwatch stops the routing without touching the subscription.
	h.Unwatch(qa, a.ID)
	h.Evaluate(burst(1, 400, 1))
	h.Evaluate(append(burst(1, 401, 4), burst(2, 401, 4)...))
	if alerts := drain(qa); len(alerts) != 0 {
		t.Fatalf("unwatched queue still receives: %+v", alerts)
	}
	_ = b
}

func TestDetachFoldsCountersAndCloses(t *testing.T) {
	h := NewHub(Config{})
	if _, err := h.Register(Subscription{Events: []uint64{1}, Theta: 2, Tau: 16}); err != nil {
		t.Fatal(err)
	}
	q := h.AttachAll(ChannelWebhook, 1)
	h.Evaluate(burst(1, 100, 4))
	h.Evaluate(burst(1, 300, 1))
	h.Evaluate(burst(1, 301, 4)) // second alert overflows the 1-slot queue
	h.Detach(q)
	// A closed queue drains what it still holds: the surviving alert
	// carries the drop as its gap marker, then the queue reports closed.
	a, ok := q.Pop(nil)
	if !ok || a.Gap != 1 {
		t.Fatalf("drained alert = %+v, %v; want gap 1", a, ok)
	}
	if _, ok := q.Pop(nil); ok {
		t.Fatal("queue still open after Detach")
	}
	st := h.Stats()
	cs := st.Channels[ChannelWebhook]
	if cs.Dropped != 1 {
		t.Fatalf("retired dropped = %d, want 1", cs.Dropped)
	}
}

func TestHubCloseUnblocksConsumers(t *testing.T) {
	h := NewHub(Config{})
	q := h.AttachAll(ChannelSSE, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := q.Pop(nil); !ok {
				return
			}
		}
	}()
	h.Close()
	<-done
	if _, err := h.Register(Subscription{Events: []uint64{1}, Theta: 1, Tau: 1}); err == nil {
		t.Fatal("registration accepted after Close")
	}
}

func TestListAndGet(t *testing.T) {
	h := NewHub(Config{})
	a, _ := h.Register(Subscription{Events: []uint64{1}, Theta: 2, Tau: 16, Webhook: "http://example/hook"})
	b, _ := h.Register(Subscription{Events: []uint64{2}, Theta: 3, Tau: 32})
	subs := h.List()
	if len(subs) != 2 || subs[0].ID != a.ID || subs[1].ID != b.ID {
		t.Fatalf("list = %+v", subs)
	}
	got, ok := h.Get(a.ID)
	if !ok || got.Webhook != "http://example/hook" {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	if _, ok := h.Get(999); ok {
		t.Fatal("get of unknown id succeeded")
	}
}

func TestWindowBucketQuantization(t *testing.T) {
	// τ=160 → bucket width 10: a burst inside one τ span counts fully in
	// c1, and the same mass 2τ earlier lands in c2 and cancels.
	w := newWindow(160)
	for i := 0; i < 8; i++ {
		w.advance(int64(1000 + i))
		w.add(int64(1000 + i))
	}
	if b := w.burst(); b != 8 {
		t.Fatalf("fresh burst b = %v, want 8", b)
	}
	// Slide forward one τ: the burst moves into c2, b goes negative.
	w.advance(1000 + 160)
	if b := w.burst(); b >= 0 {
		t.Fatalf("after τ slide b = %v, want negative", b)
	}
	// Past 2τ the history falls off entirely.
	w.advance(1000 + 321)
	if b := w.burst(); b != 0 {
		t.Fatalf("after 2τ slide b = %v, want 0", b)
	}
}

// TestHugeTauKeepsItsSpan: a τ near the int64 limit still spans the whole
// stream, so two batches 900 apart sum to one burst of 20. The bucket width
// ⌈τ/16⌉ must not wrap, which would shrink τ to 16 time units.
func TestHugeTauKeepsItsSpan(t *testing.T) {
	for _, tau := range []int64{1 << 40, math.MaxInt64 - 15, math.MaxInt64} {
		h := NewHub(Config{})
		if _, err := h.Register(Subscription{Events: []uint64{3}, Theta: 20, Tau: tau}); err != nil {
			t.Fatal(err)
		}
		q := h.AttachAll(ChannelSSE, 16)
		h.Evaluate(burst(3, 100, 10))
		h.Evaluate(burst(3, 1000, 10))
		if alerts := drain(q); len(alerts) != 1 {
			t.Errorf("τ=%d: %d alerts, want 1", tau, len(alerts))
		}
	}
}
