// Package workload generates synthetic event streams standing in for the
// paper's proprietary Twitter datasets (olympicrio and uspolitics), per the
// substitution documented in DESIGN.md.
//
// Every generator is deterministic given a seed and controls exactly the
// stream characteristics the paper's experiments exercise: total volume N,
// id-space size K, time horizon T, and — most importantly — the shape of
// each event's frequency curve (stable background rates, scheduled burst
// windows with ramps, Zipf-skewed popularity, intermittent spikes). Arrival
// processes are Poisson: homogeneous for background rates, thinned
// non-homogeneous for burst ramps.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"histburst/internal/stream"
)

// Day is the number of 1-second ticks in a day, the granularity the paper's
// datasets use (τ = 86,400 s in Figure 7).
const Day int64 = 86_400

// Month is the olympicrio horizon: 31 days of seconds (T = 2,678,400).
const Month int64 = 31 * Day

// BurstWindow is one scheduled burst: the arrival rate ramps linearly from
// zero at Start to PeakRate at Peak, then back to zero at End.
type BurstWindow struct {
	Start, Peak, End int64
	PeakRate         float64 // arrivals per tick at the peak, on top of base
}

// rate returns the window's arrival rate at time t.
func (w BurstWindow) rate(t int64) float64 {
	if t < w.Start || t >= w.End {
		return 0
	}
	if t < w.Peak {
		return w.PeakRate * float64(t-w.Start) / float64(w.Peak-w.Start)
	}
	return w.PeakRate * float64(w.End-t) / float64(w.End-w.Peak)
}

// expected returns the window's expected arrival count (triangle area).
func (w BurstWindow) expected() float64 {
	return w.PeakRate * float64(w.End-w.Start) / 2
}

// Validate checks the window's invariants.
func (w BurstWindow) Validate() error {
	if !(w.Start < w.Peak && w.Peak < w.End) {
		return fmt.Errorf("workload: burst window must satisfy Start < Peak < End, got %d/%d/%d",
			w.Start, w.Peak, w.End)
	}
	if w.PeakRate < 0 || math.IsNaN(w.PeakRate) || math.IsInf(w.PeakRate, 0) {
		return fmt.Errorf("workload: peak rate must be finite and non-negative, got %v", w.PeakRate)
	}
	return nil
}

// EventProfile describes one event's arrival process over the horizon.
type EventProfile struct {
	ID       uint64
	BaseRate float64 // homogeneous Poisson arrivals per tick
	Bursts   []BurstWindow
}

// Expected returns the profile's expected arrival count over the horizon.
func (p EventProfile) Expected(horizon int64) float64 {
	total := p.BaseRate * float64(horizon)
	for _, w := range p.Bursts {
		total += w.expected()
	}
	return total
}

// Scale multiplies every rate so the expected count over the horizon
// becomes targetN. A zero-expectation profile is returned unchanged.
func (p EventProfile) Scale(targetN int64, horizon int64) EventProfile {
	exp := p.Expected(horizon)
	if exp <= 0 {
		return p
	}
	f := float64(targetN) / exp
	out := EventProfile{ID: p.ID, BaseRate: p.BaseRate * f}
	out.Bursts = make([]BurstWindow, len(p.Bursts))
	for i, w := range p.Bursts {
		w.PeakRate *= f
		out.Bursts[i] = w
	}
	return out
}

// Spec is a complete workload: a set of event profiles over a horizon.
type Spec struct {
	Horizon  int64
	Profiles []EventProfile
	Seed     int64
}

// Validate checks the spec's invariants.
func (s Spec) Validate() error {
	if s.Horizon <= 0 {
		return fmt.Errorf("workload: horizon must be positive, got %d", s.Horizon)
	}
	for _, p := range s.Profiles {
		if p.BaseRate < 0 || math.IsNaN(p.BaseRate) || math.IsInf(p.BaseRate, 0) {
			return fmt.Errorf("workload: event %d base rate invalid: %v", p.ID, p.BaseRate)
		}
		for _, w := range p.Bursts {
			if err := w.Validate(); err != nil {
				return fmt.Errorf("event %d: %w", p.ID, err)
			}
		}
	}
	return nil
}

// Expected returns the spec's total expected element count.
func (s Spec) Expected() float64 {
	total := 0.0
	for _, p := range s.Profiles {
		total += p.Expected(s.Horizon)
	}
	return total
}

// Generate materializes the spec into a sorted event stream.
func Generate(s Spec) (stream.Stream, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	// Sized to the expectation (Poisson counts land within a fraction of a
	// percent of it at any useful volume), so appends rarely regrow; the cap
	// keeps an absurd spec from failing here rather than where it would.
	out := make(stream.Stream, 0, int(min(s.Expected()*1.01, 1<<24))+1024)
	for _, p := range s.Profiles {
		// Derive a per-event rng so profile order doesn't perturb other
		// events' streams.
		sub := rand.New(rand.NewSource(rng.Int63()))
		for _, t := range GenerateEvent(sub, p, s.Horizon) {
			out = append(out, stream.Element{Event: p.ID, Time: t})
		}
	}
	out.Sort()
	return out, nil
}

// GenerateEvent materializes one profile into a sorted timestamp sequence.
func GenerateEvent(rng *rand.Rand, p EventProfile, horizon int64) stream.TimestampSeq {
	var ts stream.TimestampSeq
	ts = append(ts, poissonProcess(rng, p.BaseRate, 0, horizon)...)
	for _, w := range p.Bursts {
		end := w.End
		if end > horizon {
			end = horizon
		}
		ts = append(ts, thinnedProcess(rng, w.rate, w.PeakRate, w.Start, end)...)
	}
	slices.Sort(ts)
	return ts
}

// poissonProcess samples a homogeneous Poisson process with the given rate
// per tick on [start, end), returning integer timestamps.
func poissonProcess(rng *rand.Rand, rate float64, start, end int64) stream.TimestampSeq {
	if rate <= 0 || start >= end {
		return nil
	}
	var ts stream.TimestampSeq
	t := float64(start)
	for {
		t += rng.ExpFloat64() / rate
		if t >= float64(end) {
			return ts
		}
		ts = append(ts, int64(t))
	}
}

// thinnedProcess samples a non-homogeneous Poisson process with rate
// function rate(t) bounded by maxRate on [start, end) via Lewis-Shedler
// thinning.
func thinnedProcess(rng *rand.Rand, rate func(int64) float64, maxRate float64, start, end int64) stream.TimestampSeq {
	if maxRate <= 0 || start >= end {
		return nil
	}
	var ts stream.TimestampSeq
	t := float64(start)
	for {
		t += rng.ExpFloat64() / maxRate
		if t >= float64(end) {
			return ts
		}
		it := int64(t)
		if rng.Float64()*maxRate <= rate(it) {
			ts = append(ts, it)
		}
	}
}
