package wire

import (
	"errors"
	"testing"
	"time"

	"histburst"
	"histburst/internal/binenc"
	"histburst/internal/pbe"
	"histburst/internal/subscribe"
)

// popAlert drains one alert from q or fails the test after a timeout.
func popAlert(t *testing.T, q *subscribe.Queue) subscribe.Alert {
	t.Helper()
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	defer timer.Stop()
	a, ok := q.Pop(stop)
	if !ok {
		t.Fatal("no alert arrived (queue closed or timeout)")
	}
	return a
}

// TestSubscribeAlertDelivered is the wire e2e: a standing query registered
// over the connection fires an unsolicited ALERT frame for the very batch
// whose commit crossed the threshold — the ack and the alert ride the same
// session.
func TestSubscribeAlertDelivered(t *testing.T) {
	b := newTestBackend(t, t.TempDir())
	c := pipeClient(t, b, 0)

	subID, err := c.Subscribe(subscribe.Subscription{Events: []uint64{7}, Theta: 4, Tau: 100})
	if err != nil {
		t.Fatal(err)
	}
	if subID == 0 {
		t.Fatal("subscription id 0")
	}
	if got := b.hub.Stats().Armed; got != 1 {
		t.Fatalf("armed = %d, want 1", got)
	}

	if _, err := c.Append(seq([]uint64{7, 7, 7, 7, 7, 7}, 100)); err != nil {
		t.Fatal(err)
	}
	a := popAlert(t, c.Alerts())
	if a.Sub != subID || a.Event != 7 || a.Burstiness < 4 || a.Theta != 4 || a.Tau != 100 {
		t.Fatalf("alert = %+v", a)
	}
	if a.Time != 105 {
		t.Fatalf("alert time = %d, want the batch frontier 105", a.Time)
	}
}

// TestUnsubscribeStopsAlerts cancels the standing query and shows later
// bursts stay silent, while an id the connection does not own is refused.
func TestUnsubscribeStopsAlerts(t *testing.T) {
	b := newTestBackend(t, t.TempDir())
	c := pipeClient(t, b, 0)

	subID, err := c.Subscribe(subscribe.Subscription{Events: []uint64{3}, Theta: 2, Tau: 50})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Unsubscribe(subID + 99); err != nil || ok {
		t.Fatalf("foreign unsubscribe = %v, %v; want false, nil", ok, err)
	}
	if ok, err := c.Unsubscribe(subID); err != nil || !ok {
		t.Fatalf("unsubscribe = %v, %v", ok, err)
	}
	if got := b.hub.Stats().Armed; got != 0 {
		t.Fatalf("armed = %d after unsubscribe, want 0", got)
	}
	if _, err := c.Append(seq([]uint64{3, 3, 3, 3}, 10)); err != nil {
		t.Fatal(err)
	}
	// The append round trip above orders after any would-be alert; the
	// queue must be empty.
	if n := c.Alerts().Len(); n != 0 {
		t.Fatalf("queue depth %d after unsubscribe, want 0", n)
	}
}

// TestConnCloseUnregistersSubscriptions pins the connection-scoped
// lifetime: the peer vanishing disarms its standing queries.
func TestConnCloseUnregistersSubscriptions(t *testing.T) {
	b := newTestBackend(t, t.TempDir())
	c := pipeClient(t, b, 0)
	if _, err := c.Subscribe(subscribe.Subscription{Events: []uint64{1}, Theta: 2, Tau: 50}); err != nil {
		t.Fatal(err)
	}
	if got := b.hub.Stats().Armed; got != 1 {
		t.Fatalf("armed = %d, want 1", got)
	}
	c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for b.hub.Stats().Armed != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription still armed after connection close")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubscribeValidationError mirrors the registry's validation over the
// wire: a bad subscription answers an ERR frame, surfaced as RequestError.
func TestSubscribeValidationError(t *testing.T) {
	c := pipeClient(t, newTestBackend(t, t.TempDir()), 0)
	_, err := c.Subscribe(subscribe.Subscription{Events: nil, Theta: 2, Tau: 50})
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RequestError", err)
	}
}

// TestAlertFrameRoundTrip pins the ALERT codec, degraded envelope included.
func TestAlertFrameRoundTrip(t *testing.T) {
	in := subscribe.Alert{
		Seq: 9, Sub: 4, Event: 77, Time: 12345,
		Burstiness: 8.5, Theta: 4.25, Tau: 3600, Gap: 3,
		Envelope: &pbe.ErrorEnvelope{
			Gamma: 2, Components: 3, Bound: 6, MissingElements: 42,
			Missing:  []histburst.TimeRange{{Start: 10, End: 20}},
			Degraded: true,
		},
	}
	payload := encodeAlert(in)
	r := binenc.NewReader(payload)
	if kind := r.Byte(); kind != frameAlert {
		t.Fatalf("kind = 0x%02x", kind)
	}
	if id := r.Uvarint(); id != 0 {
		t.Fatalf("alerts must ride request id 0, got %d", id)
	}
	out, err := decodeAlert(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.Sub != in.Sub || out.Event != in.Event ||
		out.Time != in.Time || out.Burstiness != in.Burstiness ||
		out.Theta != in.Theta || out.Tau != in.Tau || out.Gap != in.Gap {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	env := out.Envelope
	if env == nil || !env.Degraded || env.MissingElements != 42 ||
		len(env.Missing) != 1 || env.Missing[0] != (histburst.TimeRange{Start: 10, End: 20}) {
		t.Fatalf("envelope round trip: %+v", env)
	}
}

// FuzzAlertFrame throws arbitrary bytes at the ALERT decoder and round-trips
// whatever encodes: corrupt input must error, never panic or over-allocate.
func FuzzAlertFrame(f *testing.F) {
	f.Add(encodeAlert(subscribe.Alert{Seq: 1, Event: 7, Time: 100, Burstiness: 5, Theta: 4, Tau: 60}))
	f.Add(encodeAlert(subscribe.Alert{
		Seq: 2, Sub: 3, Event: 9, Time: -50, Burstiness: 1, Theta: 1, Tau: 1, Gap: 7,
		Envelope: &pbe.ErrorEnvelope{Gamma: 2, Degraded: true, Missing: []histburst.TimeRange{{Start: 1, End: 2}}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newTestReader(data)
		if kind := r.Byte(); kind != frameAlert {
			return
		}
		r.Uvarint()
		if r.Err() != nil {
			return
		}
		a, err := decodeAlert(r)
		if err != nil {
			return
		}
		// A successful decode must re-encode to a decodable frame equal to
		// the first decode (canonical form need not match raw input).
		r2 := newTestReader(encodeAlert(a))
		r2.Byte()
		r2.Uvarint()
		b, err := decodeAlert(r2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if a.Seq != b.Seq || a.Event != b.Event || a.Time != b.Time || a.Gap != b.Gap {
			t.Fatalf("re-decode drifted: %+v != %+v", b, a)
		}
	})
}

// FuzzSubscriptionDecode targets the SUBSCRIBE/UNSUBSCRIBE/SUBRESP decoders.
func FuzzSubscriptionDecode(f *testing.F) {
	f.Add(encodeSubscribeReq(1, subscribe.Subscription{Events: []uint64{1, 2, 3}, Theta: 4, Tau: 60, Dedup: 120}))
	f.Add(encodeUnsubscribeReq(2, 7))
	f.Add(encodeSubResp(3, 9, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newTestReader(data)
		kind := r.Byte()
		r.Uvarint()
		if r.Err() != nil {
			return
		}
		switch kind {
		case frameSubscribe:
			sub, err := decodeSubscribeReq(r)
			if err != nil {
				return
			}
			if len(sub.Events) > subscribe.MaxEventsPerSub {
				t.Fatalf("decoder admitted %d events past the %d ceiling", len(sub.Events), subscribe.MaxEventsPerSub)
			}
		case frameUnsubscribe:
			decodeUnsubscribeReq(r)
		case frameSubResp:
			decodeSubResp(r)
		}
	})
}
