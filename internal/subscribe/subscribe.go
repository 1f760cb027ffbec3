// Package subscribe implements standing burstiness queries: clients
// register (event-set, θ, τ) subscriptions once and the daemon pushes an
// alert the moment a committed batch drives an event's live burstiness
// across the threshold — the push inverse of the POINT/BURSTY pull API.
//
// The Hub sits on the Stager's group-commit path. Every committed batch is
// evaluated exactly once: subscriptions are indexed by event id, so the
// work per commit is O(batch ∩ armed events), not O(armed subscriptions),
// and each (subscription, event) pair keeps its own incremental window
// state instead of re-querying the store. The window is a 32-bucket ring at
// τ/16 resolution covering [t−2τ, t]: burstiness b(t) = F(t) − 2F(t−τ) +
// F(t−2τ) collapses to (count in the newest 16 buckets) − (count in the
// older 16), so advancing the ring and adding the batch's elements is the
// whole evaluation. The bucketed estimate is a detection trigger, not the
// authoritative value — a client that needs the exact figure issues a POINT
// query for the alert's (event, t, τ).
//
// Alerts fire on the rising edge only: a sustained burst that stays above θ
// across many commits produces one alert, and a per-subscription dedup
// window additionally suppresses re-fires while the burstiness oscillates
// around the threshold; the edge re-arms once the window has passed.
//
// Fan-out never backpressures ingest: every delivery channel (SSE, webhook,
// wire ALERT frames) attaches a bounded Queue whose Push drops the oldest
// alert on overflow and folds the loss into the next delivered alert's Gap
// counter, so a stalled consumer loses its own alerts and nothing else.
package subscribe

import (
	"fmt"
	"sort"
	"sync"

	"histburst/internal/segstore"
	"histburst/internal/stream"
)

// Delivery channel labels used for per-channel queue accounting.
const (
	ChannelSSE     = "sse"
	ChannelWebhook = "webhook"
	ChannelWire    = "wire"
)

// Window geometry: the ring holds 2τ of history in ringBuckets buckets,
// the newest half covering (t−τ, t] and the older half (t−2τ, t−τ]. The
// bucket width is ⌈τ/tauBuckets⌉, so τ is effectively rounded up to the
// next multiple of tauBuckets time units.
const (
	tauBuckets  = 16
	ringBuckets = 2 * tauBuckets
)

// Limits (defaults; MaxSubs is configurable).
const (
	DefaultMaxSubs  = 1024
	DefaultQueueCap = 256
	// MaxEventsPerSub bounds one subscription's watched-event list.
	MaxEventsPerSub = 1024
)

// Subscription is one standing query: fire when any watched event's
// burstiness over span Tau crosses Theta. Dedup is the re-fire suppression
// window in event-time units (0 = every rising edge fires). Webhook is an
// optional delivery URL managed by the daemon, carried here so listings
// show it.
type Subscription struct {
	ID      uint64   `json:"id"`
	Events  []uint64 `json:"events"`
	Theta   float64  `json:"theta"`
	Tau     int64    `json:"tau"`
	Dedup   int64    `json:"dedup,omitempty"`
	Webhook string   `json:"webhook,omitempty"`
}

// Alert is one fired standing query. Time is the commit batch's newest
// timestamp (event time, not wall clock); Burstiness is the evaluator's
// bucketed estimate at that instant. Gap counts alerts dropped from the
// receiving queue immediately before this one (the overflow marker).
// Envelope is attached when the history is degraded, mirroring the query
// API's γ/quarantine envelope.
type Alert struct {
	Seq        uint64                  `json:"seq"`
	Sub        uint64                  `json:"sub"`
	Event      uint64                  `json:"event"`
	Time       int64                   `json:"t"`
	Burstiness float64                 `json:"burstiness"`
	Theta      float64                 `json:"theta"`
	Tau        int64                   `json:"tau"`
	Gap        uint64                  `json:"gap,omitempty"`
	Envelope   *segstore.ErrorEnvelope `json:"envelope,omitempty"`
}

// Config shapes a Hub. The zero value is usable.
type Config struct {
	// MaxSubs caps armed subscriptions (DefaultMaxSubs when 0).
	MaxSubs int
	// QueueCap is the per-subscriber queue capacity Attach uses when the
	// caller passes 0 (DefaultQueueCap when 0 itself).
	QueueCap int
	// Fold maps a subscription's event ids into the store's id space (the
	// sketch folds ids modulo K); nil leaves ids unmapped.
	Fold func(event uint64) uint64
	// Envelope supplies the degraded-history envelope attached to alerts
	// fired at time t, or nil when the history below t is whole.
	Envelope func(t int64) *segstore.ErrorEnvelope
}

// window is the 32-bucket burstiness ring for one (subscription, event)
// pair. top is the index (time/width) of the newest covered bucket; counts
// wrap modulo ringBuckets.
type window struct {
	width  int64
	top    int64
	primed bool
	counts [ringBuckets]uint32
}

func newWindow(tau int64) window {
	return window{width: (tau-1)/tauBuckets + 1} // ⌈τ/tauBuckets⌉ for τ > 0, without overflow
}

func (w *window) bucket(t int64) int64 {
	if t >= 0 {
		return t / w.width
	}
	return (t - w.width + 1) / w.width
}

// advance slides the ring forward so t's bucket is the newest, zeroing
// every bucket the slide skips; time never moves backward (the stager
// commits in frontier order).
func (w *window) advance(t int64) {
	ib := w.bucket(t)
	if !w.primed {
		w.primed = true
		w.top = ib
		return
	}
	if ib <= w.top {
		return
	}
	steps := ib - w.top
	if steps >= ringBuckets {
		w.counts = [ringBuckets]uint32{}
	} else {
		for i := w.top + 1; i <= ib; i++ {
			w.counts[((i%ringBuckets)+ringBuckets)%ringBuckets] = 0
		}
	}
	w.top = ib
}

// add counts one element at time t, which must not be ahead of the last
// advance; elements older than the ring simply fall off.
func (w *window) add(t int64) {
	ib := w.bucket(t)
	if ib > w.top || w.top-ib >= ringBuckets {
		return
	}
	w.counts[((ib%ringBuckets)+ringBuckets)%ringBuckets]++
}

// burst is c1 − c2: the newest tauBuckets minus the older tauBuckets — the
// bucketed b(t) = F(t) − 2F(t−τ) + F(t−2τ).
func (w *window) burst() float64 {
	var c1, c2 int64
	for i := int64(0); i < tauBuckets; i++ {
		c1 += int64(w.counts[(((w.top-i)%ringBuckets)+ringBuckets)%ringBuckets])
		c2 += int64(w.counts[(((w.top-tauBuckets-i)%ringBuckets)+ringBuckets)%ringBuckets])
	}
	return float64(c1 - c2)
}

// evalState is the incremental detector state for one (subscription,
// event) pair. All fields are guarded by Hub.mu (evaluation and registry
// mutations share the write lock).
type evalState struct {
	win      window
	above    bool   // currently at or above θ (the edge detector)
	fired    bool   // ever fired
	lastFire int64  // event time of the last fire
	seen     uint64 // batch sequence that last touched this state
}

// armed is one registered subscription plus its per-event states.
type armed struct {
	Subscription
	states map[uint64]*evalState
}

// attachment is one subscriber queue's routing entry: matchAll delivers
// every alert, otherwise only alerts whose subscription id is watched.
type attachment struct {
	q        *Queue
	channel  string
	matchAll bool
	watch    map[uint64]struct{}
}

// retired accumulates counters of detached queues so Stats survives
// subscriber churn.
type retired struct {
	dropped   uint64
	delivered uint64
}

// touched records one (armed, event) pair evaluated for the current batch.
type touchedState struct {
	sub *armed
	ev  uint64
	st  *evalState
}

// ChannelStats is one delivery channel's live accounting.
type ChannelStats struct {
	Queues    int    `json:"queues"`
	Depth     int    `json:"depth"`
	Dropped   uint64 `json:"dropped"`
	Delivered uint64 `json:"delivered"`
}

// Stats is the hub's introspection surface (/healthz, /v1/segments, STATS).
type Stats struct {
	Armed    int                     `json:"armed"`
	Fired    uint64                  `json:"fired"`
	Channels map[string]ChannelStats `json:"channels,omitempty"`
}

// Hub is the subscription registry, incremental evaluator, and fan-out
// router. One Hub fronts one store; Evaluate is called from the Stager's
// group-commit hook with each committed batch.
type Hub struct {
	cfg Config

	// Evaluation runs under the same write lock as registry mutations, so
	// a commit never races a Register/Unregister resizing the index.
	//
	//histburst:lockorder Stager.seqMu Hub.mu
	mu       sync.RWMutex
	subs     map[uint64]*armed      // guarded by mu
	index    map[uint64][]*armed    // guarded by mu: event id → watchers
	atts     map[*Queue]*attachment // guarded by mu
	retired  map[string]*retired    // guarded by mu: per-channel counters of detached queues
	nextID   uint64                 // guarded by mu
	batchSeq uint64                 // guarded by mu
	seq      uint64                 // guarded by mu: alert sequence numbers
	fired    uint64                 // guarded by mu: total alerts emitted
	touched  []touchedState         // guarded by mu: per-batch scratch
	closed   bool                   // guarded by mu
}

// NewHub builds a hub.
//
//histburst:allow lockguard -- constructor; the value is not shared yet
func NewHub(cfg Config) *Hub {
	if cfg.MaxSubs <= 0 {
		cfg.MaxSubs = DefaultMaxSubs
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	return &Hub{
		cfg:     cfg,
		subs:    make(map[uint64]*armed),
		index:   make(map[uint64][]*armed),
		atts:    make(map[*Queue]*attachment),
		retired: make(map[string]*retired),
	}
}

// Register validates and arms sub, returning it with its assigned ID and
// folded event ids.
func (h *Hub) Register(sub Subscription) (Subscription, error) {
	if len(sub.Events) == 0 {
		return Subscription{}, fmt.Errorf("subscribe: subscription watches no events")
	}
	if len(sub.Events) > MaxEventsPerSub {
		return Subscription{}, fmt.Errorf("subscribe: %d events exceeds the %d-event limit", len(sub.Events), MaxEventsPerSub)
	}
	if !(sub.Theta > 0) { // NaN too: it would fire once on any traffic and never again
		return Subscription{}, fmt.Errorf("subscribe: threshold must be positive, got %v", sub.Theta)
	}
	if sub.Tau <= 0 {
		return Subscription{}, fmt.Errorf("subscribe: burst span must be positive, got %d", sub.Tau)
	}
	if sub.Dedup < 0 {
		return Subscription{}, fmt.Errorf("subscribe: dedup window must be non-negative, got %d", sub.Dedup)
	}
	events := make([]uint64, 0, len(sub.Events))
	seen := make(map[uint64]struct{}, len(sub.Events))
	for _, e := range sub.Events {
		if h.cfg.Fold != nil {
			e = h.cfg.Fold(e)
		}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	sub.Events = events

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return Subscription{}, fmt.Errorf("subscribe: hub is shut down")
	}
	if len(h.subs) >= h.cfg.MaxSubs {
		return Subscription{}, fmt.Errorf("subscribe: subscription limit (%d) reached", h.cfg.MaxSubs)
	}
	h.nextID++
	sub.ID = h.nextID
	a := &armed{Subscription: sub, states: make(map[uint64]*evalState, len(events))}
	for _, e := range events {
		a.states[e] = &evalState{win: newWindow(sub.Tau)}
		h.index[e] = append(h.index[e], a)
	}
	h.subs[sub.ID] = a
	return sub, nil
}

// Unregister disarms a subscription; it reports whether the id was armed.
func (h *Hub) Unregister(id uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.subs[id]
	if !ok {
		return false
	}
	delete(h.subs, id)
	for e := range a.states {
		ws := h.index[e]
		for i, w := range ws {
			if w == a {
				ws[i] = ws[len(ws)-1]
				ws = ws[:len(ws)-1]
				break
			}
		}
		if len(ws) == 0 {
			delete(h.index, e)
		} else {
			h.index[e] = ws
		}
	}
	return true
}

// Get returns one armed subscription.
func (h *Hub) Get(id uint64) (Subscription, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	a, ok := h.subs[id]
	if !ok {
		return Subscription{}, false
	}
	return a.Subscription, true
}

// List returns the armed subscriptions in id order.
func (h *Hub) List() []Subscription {
	h.mu.RLock()
	out := make([]Subscription, 0, len(h.subs))
	for _, a := range h.subs {
		out = append(out, a.Subscription)
	}
	h.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Evaluate runs one committed batch through every armed subscription
// watching an event present in the batch. The batch must be time-sorted
// with its rejected prefix removed (the Stager commit hook's contract).
// Each (subscription, event) state is advanced once per batch: the window
// slides to the batch's newest timestamp, the batch's occurrences are
// added, and the rising-edge + dedup rule decides whether to fire.
func (h *Hub) Evaluate(batch stream.Stream) {
	if len(batch) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.index) == 0 {
		return
	}
	maxT := batch[len(batch)-1].Time
	h.batchSeq++
	h.touched = h.touched[:0]
	for _, el := range batch {
		// The index is keyed by folded ids (Register folds), but committed
		// elements carry the ids clients appended; fold them the same way or
		// a subscription on event e >= K would never match.
		ev := el.Event
		if h.cfg.Fold != nil {
			ev = h.cfg.Fold(ev)
		}
		watchers, ok := h.index[ev]
		if !ok {
			continue
		}
		for _, a := range watchers {
			st := a.states[ev]
			if st.seen != h.batchSeq {
				st.seen = h.batchSeq
				// First touch this batch: decay the window to the commit
				// instant before adding anything, and let a burst that
				// already died re-arm the edge.
				st.win.advance(maxT)
				if st.win.burst() < a.Theta {
					st.above = false
				}
				h.touched = append(h.touched, touchedState{sub: a, ev: ev, st: st})
			}
			st.win.add(el.Time)
		}
	}
	for _, t := range h.touched {
		b := t.st.win.burst()
		if b < t.sub.Theta {
			t.st.above = false
			continue
		}
		if t.st.above {
			continue // sustained burst: the edge already fired
		}
		t.st.above = true
		if t.st.fired && maxT-t.st.lastFire < t.sub.Dedup {
			continue // rising edge inside the dedup window: suppressed
		}
		t.st.fired = true
		t.st.lastFire = maxT
		h.emitLocked(t.sub, t.ev, maxT, b)
	}
}

// emitLocked builds one alert and pushes it to every attachment watching
// the subscription. Push is non-blocking (drop-oldest), so emission cost
// is bounded no matter how stalled a subscriber is.
//
//histburst:locked mu
func (h *Hub) emitLocked(a *armed, event uint64, t int64, b float64) {
	h.seq++
	h.fired++
	al := Alert{
		Seq: h.seq, Sub: a.ID, Event: event, Time: t,
		Burstiness: b, Theta: a.Theta, Tau: a.Tau,
	}
	if h.cfg.Envelope != nil {
		al.Envelope = h.cfg.Envelope(t)
	}
	for _, att := range h.atts {
		if att.matchAll {
			att.q.Push(al)
			continue
		}
		if _, ok := att.watch[a.ID]; ok {
			att.q.Push(al)
		}
	}
}

// Attach creates a bounded queue on the given delivery channel that
// receives no alerts until Watch adds subscription ids. capacity 0 selects
// the hub default.
func (h *Hub) Attach(channel string, capacity int) *Queue {
	return h.attach(channel, capacity, false)
}

// AttachAll creates a bounded queue receiving every alert the hub fires
// (the unfiltered SSE firehose). capacity 0 selects the hub default.
func (h *Hub) AttachAll(channel string, capacity int) *Queue {
	return h.attach(channel, capacity, true)
}

func (h *Hub) attach(channel string, capacity int, all bool) *Queue {
	if capacity <= 0 {
		capacity = h.cfg.QueueCap
	}
	q := NewQueue(capacity)
	att := &attachment{q: q, channel: channel, matchAll: all, watch: make(map[uint64]struct{})}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		q.Close()
		return q
	}
	h.atts[q] = att
	h.mu.Unlock()
	return q
}

// Watch routes alerts for subscription id to q.
func (h *Hub) Watch(q *Queue, id uint64) {
	h.mu.Lock()
	if att, ok := h.atts[q]; ok {
		att.watch[id] = struct{}{}
	}
	h.mu.Unlock()
}

// Unwatch stops routing alerts for subscription id to q.
func (h *Hub) Unwatch(q *Queue, id uint64) {
	h.mu.Lock()
	if att, ok := h.atts[q]; ok {
		delete(att.watch, id)
	}
	h.mu.Unlock()
}

// Detach removes q from the fan-out, folds its counters into the channel's
// retired totals, and closes it (waking its consumer).
func (h *Hub) Detach(q *Queue) {
	h.mu.Lock()
	att, ok := h.atts[q]
	if ok {
		delete(h.atts, q)
		r := h.retired[att.channel]
		if r == nil {
			r = &retired{}
			h.retired[att.channel] = r
		}
		r.dropped += q.Dropped()
		r.delivered += q.Delivered()
	}
	h.mu.Unlock()
	q.Close()
}

// Close shuts the hub down: every attachment is detached (closing its
// queue, which unblocks SSE handlers, wire pumps, and webhook workers) and
// further registrations are refused. Armed subscriptions are forgotten.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	atts := h.atts
	h.atts = make(map[*Queue]*attachment)
	h.subs = make(map[uint64]*armed)
	h.index = make(map[uint64][]*armed)
	h.mu.Unlock()
	for q := range atts {
		q.Close()
	}
}

// Stats reports armed-subscription count, total fired alerts, and per-
// channel queue depth plus dropped/delivered counters (live queues plus
// detached history).
func (h *Hub) Stats() Stats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := Stats{Armed: len(h.subs), Fired: h.fired, Channels: make(map[string]ChannelStats)}
	for q, att := range h.atts {
		cs := s.Channels[att.channel]
		cs.Queues++
		cs.Depth += q.Len()
		cs.Dropped += q.Dropped()
		cs.Delivered += q.Delivered()
		s.Channels[att.channel] = cs
	}
	for ch, r := range h.retired {
		cs := s.Channels[ch]
		cs.Dropped += r.dropped
		cs.Delivered += r.delivered
		s.Channels[ch] = cs
	}
	return s
}
