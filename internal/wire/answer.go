package wire

import (
	"errors"
	"fmt"

	"histburst"
	"histburst/internal/pbe"
	"histburst/internal/segstore"
)

// The read path, written once. Every front end — the HBP1 handlers below,
// burstd's HTTP handlers, burstcli over a sketch file or a store directory —
// decodes its own request form, substitutes the defaults for what its caller
// left out, and answers through these four functions. They own everything
// else: validation and its messages, the one pbe.Span each query is answered
// over, and when a degraded-history envelope rides along.

const (
	// DefaultTau is the burst span τ of a query that names none: one day.
	DefaultTau int64 = 86_400
	// DefaultK is the result size of a top-k query that names none.
	DefaultK int64 = 10
)

// Querier is a source of the paper's three queries plus top-k, each over a
// span the caller has built, and of its frontier. *histburst.Detector and
// *segstore.Snapshot both satisfy it.
type Querier interface {
	BurstinessOver(e uint64, t int64, sp pbe.Span) float64
	BurstyTimesOver(e uint64, theta float64, sp pbe.Span) ([]histburst.TimeRange, error)
	BurstyEventsOver(t int64, theta float64, sp pbe.Span) ([]histburst.EventBurstiness, error)
	TopBurstyOver(t int64, k int, sp pbe.Span) ([]histburst.EventBurstiness, error)
	MaxTime() int64
}

// DegradedEnvelope is the degraded-history rule every answer (and every
// alert) follows: a store snapshot missing history at or before t reports
// its envelope there; a whole history, or a detector (which has nothing to
// quarantine), nil. Only a degraded envelope is copied to the heap: a
// healthy snapshot's answers allocate nothing here.
func DegradedEnvelope(q Querier, t int64) *segstore.ErrorEnvelope {
	sn, ok := q.(*segstore.Snapshot)
	if !ok {
		return nil
	}
	if env := sn.Envelope(t); env.Degraded {
		out := env
		return &out
	}
	return nil
}

// AnswerPoint answers a batch of POINT queries q(e, t, τ) in request order.
// A batch is all-or-nothing: one invalid query refuses all of it.
func AnswerPoint(q Querier, qs []PointQuery) ([]PointResult, error) {
	if len(qs) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(qs) > MaxBatchQueries {
		return nil, fmt.Errorf("batch of %d exceeds the %d-query limit", len(qs), MaxBatchQueries)
	}
	out := make([]PointResult, len(qs))
	for i, pq := range qs {
		sp, err := pbe.NewSpan(pq.Tau)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = PointResult{Burstiness: q.BurstinessOver(pq.Event, pq.T, sp), Envelope: DegradedEnvelope(q, pq.T)}
	}
	return out, nil
}

// AnswerTimes answers the BURSTY TIME query q(e, θ, τ), θ as
// pbe.CheckTimesTheta allows. The ranges span the whole history, so the
// envelope is the one at its frontier.
func AnswerTimes(q Querier, e uint64, theta float64, tau int64) ([]histburst.TimeRange, *segstore.ErrorEnvelope, error) {
	if err := pbe.CheckTimesTheta(theta); err != nil {
		return nil, nil, err
	}
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return nil, nil, err
	}
	ranges, err := q.BurstyTimesOver(e, theta, sp)
	if err != nil {
		return nil, nil, err
	}
	return ranges, DegradedEnvelope(q, q.MaxTime()), nil
}

// AnswerEvents answers the BURSTY EVENT query q(t, θ, τ): the ids found by
// the pruned search, ascending, each with the score the search found it by —
// its point query's answer; θ as pbe.CheckEventsTheta allows.
func AnswerEvents(q Querier, t int64, theta float64, tau int64) ([]EventHit, *segstore.ErrorEnvelope, error) {
	if err := pbe.CheckEventsTheta(theta); err != nil {
		return nil, nil, err
	}
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return nil, nil, err
	}
	scores, err := q.BurstyEventsOver(t, theta, sp)
	if err != nil {
		return nil, nil, err
	}
	return eventHits(scores), DegradedEnvelope(q, t), nil
}

// AnswerTop returns the k burstiest events at t, descending.
func AnswerTop(q Querier, t, k, tau int64) ([]EventHit, *segstore.ErrorEnvelope, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("k must be positive, got %d", k)
	}
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return nil, nil, err
	}
	scores, err := q.TopBurstyOver(t, int(k), sp)
	if err != nil {
		return nil, nil, err
	}
	return eventHits(scores), DegradedEnvelope(q, t), nil
}

// eventHits is a search's answer in its codec form.
func eventHits(scores []histburst.EventBurstiness) []EventHit {
	hits := make([]EventHit, len(scores))
	for i, s := range scores {
		hits[i] = EventHit(s)
	}
	return hits
}
