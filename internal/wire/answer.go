package wire

import (
	"errors"
	"fmt"
	"math"

	"histburst"
	"histburst/internal/segstore"
)

// The read path, written once. Every front end — the HBP1 handlers below,
// burstd's HTTP handlers, burstcli over a sketch file or a store directory —
// decodes its own request form, substitutes the defaults for what its caller
// left out, and answers through these four functions. They own everything
// else: validation and its messages, the BURSTY-EVENTS scoring, and when a
// degraded-history envelope rides along.

const (
	// DefaultTau is the burst span τ of a query that names none: one day.
	DefaultTau int64 = 86_400
	// DefaultK is the result size of a top-k query that names none.
	DefaultK int64 = 10
)

// Querier is a source of the paper's three queries plus top-k.
// *histburst.Detector and *segstore.Snapshot both satisfy it.
type Querier interface {
	Burstiness(e uint64, t, tau int64) (float64, error)
	BurstyTimes(e uint64, theta float64, tau int64) ([]histburst.TimeRange, error)
	BurstyEvents(t int64, theta float64, tau int64) ([]uint64, error)
	TopBursty(t int64, k int, tau int64) ([]histburst.EventBurstiness, error)
}

// DegradedEnvelope is the degraded-history rule every answer (and every
// alert) follows: a store snapshot missing history at or before t reports
// its envelope there; a whole history, or a detector (which has nothing to
// quarantine), nil.
func DegradedEnvelope(q Querier, t int64) *segstore.ErrorEnvelope {
	sn, ok := q.(*segstore.Snapshot)
	if !ok {
		return nil
	}
	if env := sn.Envelope(t); env.Degraded {
		return &env
	}
	return nil
}

func checkTau(tau int64) error {
	if tau <= 0 {
		return fmt.Errorf("burst span must be positive, got %d", tau)
	}
	return nil
}

// AnswerPoint answers a batch of POINT queries q(e, t, τ) in request order.
// A batch is all-or-nothing: every query is validated before q is touched.
func AnswerPoint(q Querier, qs []PointQuery) ([]PointResult, error) {
	if len(qs) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(qs) > MaxBatchQueries {
		return nil, fmt.Errorf("batch of %d exceeds the %d-query limit", len(qs), MaxBatchQueries)
	}
	for i, pq := range qs {
		if err := checkTau(pq.Tau); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	out := make([]PointResult, len(qs))
	for i, pq := range qs {
		b, err := q.Burstiness(pq.Event, pq.T, pq.Tau)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = PointResult{Burstiness: b, Envelope: DegradedEnvelope(q, pq.T)}
	}
	return out, nil
}

// AnswerTimes answers the BURSTY TIME query q(e, θ, τ). Any θ but NaN is
// accepted: θ ≤ 0 is a legitimate threshold for a scan. The ranges span the
// whole history, so the envelope is the one at its frontier.
func AnswerTimes(q Querier, e uint64, theta float64, tau int64) ([]histburst.TimeRange, *segstore.ErrorEnvelope, error) {
	if math.IsNaN(theta) {
		return nil, nil, errors.New("threshold must be a number, got NaN")
	}
	if err := checkTau(tau); err != nil {
		return nil, nil, err
	}
	ranges, err := q.BurstyTimes(e, theta, tau)
	if err != nil {
		return nil, nil, err
	}
	var env *segstore.ErrorEnvelope
	if sn, ok := q.(*segstore.Snapshot); ok {
		env = DegradedEnvelope(sn, sn.MaxTime())
	}
	return ranges, env, nil
}

// AnswerEvents answers the BURSTY EVENT query q(t, θ, τ): the ids found by
// the pruned search, ascending, each scored with its point query.
func AnswerEvents(q Querier, t int64, theta float64, tau int64) ([]EventHit, *segstore.ErrorEnvelope, error) {
	if !(theta > 0) {
		return nil, nil, fmt.Errorf("threshold must be positive, got %v", theta)
	}
	if err := checkTau(tau); err != nil {
		return nil, nil, err
	}
	ids, err := q.BurstyEvents(t, theta, tau)
	if err != nil {
		return nil, nil, err
	}
	hits := make([]EventHit, len(ids))
	for i, id := range ids {
		b, err := q.Burstiness(id, t, tau)
		if err != nil {
			return nil, nil, fmt.Errorf("scoring event %d: %w", id, err)
		}
		hits[i] = EventHit{Event: id, Burstiness: b}
	}
	return hits, DegradedEnvelope(q, t), nil
}

// AnswerTop returns the k burstiest events at t, descending.
func AnswerTop(q Querier, t, k, tau int64) ([]EventHit, *segstore.ErrorEnvelope, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("k must be positive, got %d", k)
	}
	if err := checkTau(tau); err != nil {
		return nil, nil, err
	}
	top, err := q.TopBursty(t, int(k), tau)
	if err != nil {
		return nil, nil, err
	}
	hits := make([]EventHit, len(top))
	for i, eb := range top {
		hits[i] = EventHit(eb)
	}
	return hits, DegradedEnvelope(q, t), nil
}
