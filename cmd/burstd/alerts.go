package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"histburst/internal/pbe"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
	"histburst/internal/wire"
)

// The standing-query (alerting) subsystem: POST /v1/subscriptions arms a
// (event-set, θ, τ) triple, the Stager's commit hook evaluates every
// committed batch against the armed set, and fired alerts fan out over SSE
// (GET /v1/alerts/stream), webhooks, and unsolicited wire ALERT frames.
// Every channel is a bounded drop-oldest queue, so a stalled consumer loses
// its own alerts and never backpressures ingest.

// alerting bundles the server's standing-query state.
type alerting struct {
	hub *subscribe.Hub

	mu       sync.Mutex
	webhooks map[uint64]*subscribe.Queue // subscription id → its webhook queue, guarded by mu
	wg       sync.WaitGroup              // joins webhook workers
}

// initAlerts builds the hub and hooks it into the stager's group-commit
// path. The evaluator runs under the stager's sequencer lock, so commits
// reach it in order and each batch is evaluated exactly once; its fan-out
// never blocks, which is what makes the hook safe on the hot path.
func (s *server) initAlerts(maxSubs, queueCap int) {
	s.alerts.hub = subscribe.NewHub(subscribe.Config{
		MaxSubs:  maxSubs,
		QueueCap: queueCap,
		// The sketch folds event ids modulo K; folding subscriptions the
		// same way keeps "watch event e" aligned with what the store counts.
		Fold: func(e uint64) uint64 { return e % s.store.K() },
		Envelope: func(t int64) *pbe.ErrorEnvelope {
			return wire.Degraded(s.store.Snapshot(), t)
		},
	})
	hub := s.alerts.hub
	s.stager.SetCommitHook(func(committed stream.Stream, frontier int64) {
		hub.Evaluate(committed)
	})
}

// hub returns the standing-query hub for the wire Backend seam.
func (s *server) Alerts() *subscribe.Hub { return s.alerts.hub }

// closeAlerts shuts the alerting subsystem down: the hub closes every
// subscriber queue — unblocking SSE handlers mid-Pop and ending the wire
// alert pumps — and the webhook workers drain out. Call before the HTTP
// graceful shutdown, or streaming handlers would stall it.
func (s *server) closeAlerts() {
	if s.alerts.hub == nil {
		return
	}
	s.alerts.hub.Close()
	s.alerts.wg.Wait()
}

// maxSubscriptionBody bounds a subscription registration body.
const maxSubscriptionBody = 1 << 20

// handleSubscribe arms one standing query. A subscription carrying a
// webhook URL additionally gets a dedicated delivery worker whose lifetime
// is the subscription's.
//
//histburst:worker closeAlerts
func (s *server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var sub subscribe.Subscription
	body := http.MaxBytesReader(w, r.Body, maxSubscriptionBody)
	if err := json.NewDecoder(body).Decode(&sub); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	reg, err := s.alerts.hub.Register(sub)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if reg.Webhook != "" {
		q := s.alerts.hub.Attach(subscribe.ChannelWebhook, 0)
		s.alerts.hub.Watch(q, reg.ID)
		s.alerts.mu.Lock()
		if s.alerts.webhooks == nil {
			s.alerts.webhooks = make(map[uint64]*subscribe.Queue)
		}
		s.alerts.webhooks[reg.ID] = q
		s.alerts.mu.Unlock()
		wh := subscribe.NewWebhook(reg.Webhook, q)
		wh.Logf = s.logf
		s.alerts.wg.Add(1)
		go func() {
			defer s.alerts.wg.Done()
			wh.Run()
		}()
	}
	writeStatus(w, http.StatusCreated, reg)
}

// handleSubscriptionsList serves the armed subscriptions in id order.
func (s *server) handleSubscriptionsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"subscriptions": s.alerts.hub.List()})
}

// handleUnsubscribe disarms one standing query and stops its webhook
// worker, answering 404 for an id that is not armed.
func (s *server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad subscription id: %w", err))
		return
	}
	s.alerts.mu.Lock()
	q := s.alerts.webhooks[id]
	delete(s.alerts.webhooks, id)
	s.alerts.mu.Unlock()
	if q != nil {
		s.alerts.hub.Detach(q) // closes the queue; the worker drains out
	}
	if !s.alerts.hub.Unregister(id) {
		httpError(w, http.StatusNotFound, fmt.Errorf("no subscription %d", id))
		return
	}
	writeJSON(w, map[string]any{"removed": id})
}

// handleAlertStream serves alerts over SSE. With ?ids=3,7 only those
// subscriptions' alerts are streamed; without, every fired alert is (the
// firehose). The route is registered outside the load-shedding semaphore —
// a long-lived stream would otherwise pin an inflight slot for its whole
// life — and the stream's own bounded queue already caps its cost.
func (s *server) handleAlertStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	var q *subscribe.Queue
	if ids := r.URL.Query().Get("ids"); ids != "" {
		q = s.alerts.hub.Attach(subscribe.ChannelSSE, 0)
		for _, part := range strings.Split(ids, ",") {
			id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				s.alerts.hub.Detach(q)
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad subscription id %q", part))
				return
			}
			s.alerts.hub.Watch(q, id)
		}
	} else {
		q = s.alerts.hub.AttachAll(subscribe.ChannelSSE, 0)
	}
	defer s.alerts.hub.Detach(q)

	// The server-wide write timeout would cut a healthy stream; lift it for
	// this response only (best-effort — an old ResponseWriter just keeps it).
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{}) //histburst:allow errdrop -- unsupported writers keep the server-wide deadline

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	if _, err := fmt.Fprint(w, ": alert stream\n\n"); err != nil {
		return
	}
	fl.Flush()

	stop := r.Context().Done()
	for {
		a, ok := q.Pop(stop)
		if !ok {
			return // client gone or hub shut down
		}
		if _, err := w.Write(sseEvent(a)); err != nil {
			return
		}
		fl.Flush()
	}
}

// sseEvent renders one alert as SSE frames: a gap event first when the
// subscriber's queue overflowed since the last delivery, then the alert
// itself with its id set to the hub sequence (clients resume counting from
// it after a reconnect).
func sseEvent(a subscribe.Alert) []byte {
	var b bytes.Buffer
	if a.Gap > 0 {
		fmt.Fprintf(&b, "event: gap\ndata: {\"dropped\":%d}\n\n", a.Gap)
	}
	data, err := json.Marshal(a)
	if err != nil {
		// An Alert is plain data; marshal cannot fail. Keep the stream
		// parseable regardless.
		fmt.Fprintf(&b, "event: error\ndata: {\"error\":%q}\n\n", err.Error())
		return b.Bytes()
	}
	fmt.Fprintf(&b, "id: %d\nevent: alert\ndata: %s\n\n", a.Seq, data)
	return b.Bytes()
}
