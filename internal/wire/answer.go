package wire

import (
	"cmp"
	"errors"
	"fmt"

	"histburst"
	"histburst/internal/pbe"
)

// The read path, written once. Every front end — the HBP1 handlers below,
// burstd's HTTP handlers, burstcli over a sketch file or a store directory —
// decodes its own request form, substitutes the defaults for what its caller
// left out, and answers through these four functions. They own everything
// else: validation and its messages, the one pbe.Span (and checked θ) each
// query is answered over, and when a degraded-history envelope rides along.

const (
	// DefaultTau is the burst span τ of a query that names none: one day.
	DefaultTau int64 = 86_400
	// DefaultK is the result size of a top-k query that names none.
	DefaultK int64 = 10
)

// Querier is a source of the paper's three queries plus top-k, each over a
// span the caller has built, of its frontier, and of its error envelope at
// an instant. *histburst.Detector and *segstore.Snapshot both satisfy it.
type Querier interface {
	BurstinessOver(e uint64, t int64, sp pbe.Span) float64
	BurstyTimesOver(e uint64, th pbe.TimesTheta, sp pbe.Span) []histburst.TimeRange
	BurstyEventsOver(t int64, th pbe.EventsTheta, sp pbe.Span) []histburst.EventBurstiness
	TopBurstyOver(t int64, k int, sp pbe.Span) []histburst.EventBurstiness
	MaxTime() int64
	Envelope(t int64) pbe.ErrorEnvelope
}

// Degraded is the degraded-history rule every answer follows: a source
// missing history at or before t reports its envelope there; a whole
// history, nil. Only a degraded envelope is copied to the heap: a healthy
// snapshot's answers allocate nothing here.
func Degraded(q Querier, t int64) *pbe.ErrorEnvelope {
	if env := q.Envelope(t); env.Degraded {
		out := env
		return &out
	}
	return nil
}

// overBatch refuses a POINT batch of n queries, over MaxBatchQueries.
func overBatch(n uint64) error {
	return fmt.Errorf("batch of %d exceeds the %d-query limit", n, MaxBatchQueries)
}

// AnswerPoint answers a batch of POINT queries q(e, t, τ) in request order.
// A batch is all-or-nothing: one invalid query refuses all of it.
func AnswerPoint(q Querier, qs []PointQuery) ([]PointResult, error) {
	if len(qs) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(qs) > MaxBatchQueries {
		return nil, overBatch(uint64(len(qs)))
	}
	out := make([]PointResult, len(qs))
	for i, pq := range qs {
		sp, err := pbe.NewSpan(pq.Tau)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = PointResult{Burstiness: q.BurstinessOver(pq.Event, pq.T, sp), Envelope: Degraded(q, pq.T)}
	}
	return out, nil
}

// AnswerTimes answers the BURSTY TIME query q(e, θ, τ), θ as
// pbe.NewTimesTheta allows. The ranges span the whole history, so the
// envelope is the one at its frontier.
func AnswerTimes(q Querier, e uint64, theta float64, tau int64) ([]histburst.TimeRange, *pbe.ErrorEnvelope, error) {
	th, err := pbe.NewTimesTheta(theta)
	sp, serr := pbe.NewSpan(tau)
	if err = cmp.Or(err, serr); err != nil {
		return nil, nil, err
	}
	return q.BurstyTimesOver(e, th, sp), Degraded(q, q.MaxTime()), nil
}

// AnswerEvents answers the BURSTY EVENT query q(t, θ, τ): the ids found by
// the pruned search, ascending, each with the score the search found it by —
// its point query's answer; θ as pbe.NewEventsTheta allows.
func AnswerEvents(q Querier, t int64, theta float64, tau int64) ([]EventHit, *pbe.ErrorEnvelope, error) {
	th, err := pbe.NewEventsTheta(theta)
	sp, serr := pbe.NewSpan(tau)
	if err = cmp.Or(err, serr); err != nil {
		return nil, nil, err
	}
	return eventHits(q.BurstyEventsOver(t, th, sp)), Degraded(q, t), nil
}

// AnswerTop returns the k burstiest events at t, descending.
func AnswerTop(q Querier, t, k, tau int64) ([]EventHit, *pbe.ErrorEnvelope, error) {
	sp, err := pbe.NewSpan(tau)
	if err = cmp.Or(pbe.CheckTopK(k), err); err != nil {
		return nil, nil, err
	}
	return eventHits(q.TopBurstyOver(t, int(k), sp)), Degraded(q, t), nil
}

// eventHits is a search's answer in its codec form.
func eventHits(scores []histburst.EventBurstiness) []EventHit {
	hits := make([]EventHit, len(scores))
	for i, s := range scores {
		hits[i] = EventHit(s)
	}
	return hits
}
