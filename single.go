package histburst

import (
	"fmt"
	"io"

	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
	"histburst/internal/pbe"
	"histburst/internal/pbe2"
)

// Single summarizes one event's stream (the paper's Section III setting):
// a sequence of timestamps, no event ids, no Count-Min sharding. Use it
// when you track a known event — it is smaller and strictly more accurate
// than a Detector over many ids, with PBE-2's per-stream guarantees: F within
// [F−γ, F] and burstiness within 4γ.
//
// It is the detector over one id, the way Section IV builds CM-PBE from
// Section III's estimator: one collision-free level of one PBE-2 cell. It
// ingests and answers through that cell alone, and saves as that detector's
// HBD9 file, so Load reads a saved Single.
type Single struct {
	p    *pbe2.Builder
	minT int64 // the first arrival, which the detector file records
}

// NewSingle creates a single-event summary. It accepts the estimator option
// (WithPBE2); sketch- and index-related options are meaningless here and are
// rejected so misconfiguration is loud.
func NewSingle(opts ...Option) (*Single, error) {
	c := defaults
	for _, o := range opts {
		o(&c)
	}
	if !c.onlyGamma() {
		return nil, fmt.Errorf("histburst: NewSingle accepts only the WithPBE2 option")
	}
	p, err := pbe2.New(c.gamma)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	return &Single{p: p}, nil
}

// onlyGamma reports whether c differs from the defaults in γ alone, as the
// configurations of single-event summaries do.
func (c config) onlyGamma() bool {
	c.gamma = defaults.gamma
	return c == defaults
}

// Append ingests one arrival at time t (non-decreasing; earlier timestamps
// are clamped by the underlying estimator).
func (s *Single) Append(t int64) {
	if s.p.Count() == 0 {
		s.minT = t
	}
	s.p.Append(t)
}

// Finish flushes internal buffers. Idempotent; Append may follow.
func (s *Single) Finish() { s.p.Finish() }

// N returns the number of arrivals ingested.
func (s *Single) N() int64 { return s.p.Count() }

// CumulativeFrequency returns F̃(t).
func (s *Single) CumulativeFrequency(t int64) float64 { return s.p.Estimate(t) }

// Burstiness answers the POINT QUERY for burst span tau > 0.
func (s *Single) Burstiness(t, tau int64) (float64, error) {
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return 0, fmt.Errorf("histburst: %w", err)
	}
	return pbe.Burstiness(s.p, t, sp), nil
}

// BurstyTimes answers the BURSTY TIME QUERY over [0, horizon]: the point
// query swept over the summary's shifted breakpoints.
func (s *Single) BurstyTimes(theta float64, tau, horizon int64) ([]TimeRange, error) {
	if err := pbe.CheckTimesTheta(theta); err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	burst := func(t int64) float64 { return pbe.Burstiness(s.p, t, sp) }
	return pbe.BurstyTimes(s.p.Breakpoints(), burst, theta, sp, horizon), nil
}

// Bytes returns the summary footprint.
func (s *Single) Bytes() int { return s.p.Bytes() }

// MergeAppend absorbs a summary built over a strictly later time range
// with identical options. Both are finished; a refused merge leaves the
// receiver as it was.
func (s *Single) MergeAppend(other *Single) error {
	if other == nil {
		return fmt.Errorf("histburst: cannot merge nil summary")
	}
	merged, err := pbe2.MergeFinished([]*pbe2.Summary{s.p.Seal(), other.p.Seal()})
	if err != nil {
		return err
	}
	if s.p.Count() == 0 {
		s.minT = other.minT
	}
	s.p = merged
	return nil
}

// Save writes the summary's complete state (flushing it first): the HBD9
// file of the detector over one id that holds it — New(1)'s index, one
// collision-free level of one cell, with New(1)'s configuration under the
// summary's γ and the counters New(1) keeps of the same arrivals.
func (s *Single) Save(w io.Writer) error {
	sum := s.p.Seal()
	tree, err := dyadic.New(1, func(int, uint64) (dyadic.Level, error) { return cmpbe.NewDirectOf(sum) })
	if err != nil {
		return fmt.Errorf("histburst: %w", err)
	}
	n := sum.Count()
	d := &Detector{k: 1, cfg: defaults, counters: counters{n: n, minT: s.minT, lastT: sum.Frontier(), started: n > 0, outOfOrder: sum.OutOfOrder()}}
	d.cfg.gamma = sum.Gamma()
	d.setTree(tree)
	d.maxT = d.base.MaxTime()
	return d.Save(w)
}

// LoadSingle reads a summary written by Single.Save: a detector file over one
// id under a configuration NewSingle builds. A detector over more ids, or
// configured beyond WithPBE2, is refused.
func LoadSingle(r io.Reader) (*Single, error) {
	d, err := Load(r)
	if err != nil {
		return nil, err
	}
	if d.K() != 1 {
		return nil, fmt.Errorf("histburst: not a single-event summary: a detector over %d ids", d.K())
	}
	if c := d.cfg; !c.onlyGamma() {
		return nil, fmt.Errorf("histburst: not a single-event summary: a detector of seed %d and sketch dimensions %d×%d, which NewSingle does not build",
			c.seed, c.d, c.w)
	}
	return &Single{p: d.base.EventCells(0)[0], minT: d.minT}, nil
}
