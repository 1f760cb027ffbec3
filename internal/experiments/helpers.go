package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"histburst/internal/curve"
	"histburst/internal/exact"
	"histburst/internal/metrics"
	"histburst/internal/pbe"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// Paper dataset volumes (Section VI): olympicrio has 5,032,975 tweets with
// the soccer/swimming sub-streams normalized to 1M each; uspolitics is a 5M
// uniform sample.
const (
	paperOlympicN  = 5_032_975
	paperFeaturedN = 1_000_000
	paperPoliticsN = 5_000_000
)

// datasetCache memoizes generated workloads so running all experiments in
// one process generates each dataset once.
var datasetCache sync.Map

func cached[T any](key string, build func() T) T {
	if v, ok := datasetCache.Load(key); ok {
		return v.(T)
	}
	v := build()
	datasetCache.Store(key, v)
	return v
}

// grain returns the timestamp quantum used at the config's scale.
//
// Two effects are folded in. First, the paper's streams are extremely
// duplicate-heavy: its Figure 8 space numbers imply the soccer curve has
// only ~5k corner points for 1M arrivals (n/N ≈ 0.005), so we coarsen
// ticks by a base factor of 16 to reach a comparable
// arrivals-per-distinct-timestamp density. Second, scaling the volume down
// while keeping the horizon would thin the streams toward Poisson sparsity
// and change the curves' character, so the quantum also grows (gently, as
// 1/√scale) as the volume shrinks.
func (c Config) grain() int64 {
	const base = 16
	if c.Scale >= 1 {
		return base
	}
	return int64(base / math.Sqrt(c.Scale))
}

// quantizeSeq snaps timestamps down to multiples of g.
func quantizeSeq(ts stream.TimestampSeq, g int64) stream.TimestampSeq {
	if g <= 1 {
		return ts
	}
	out := make(stream.TimestampSeq, len(ts))
	for i, t := range ts {
		out[i] = t / g * g
	}
	return out
}

// quantizeStream snaps a mixed stream's timestamps down to multiples of g.
func quantizeStream(s stream.Stream, g int64) stream.Stream {
	if g <= 1 {
		return s
	}
	out := make(stream.Stream, len(s))
	for i, el := range s {
		out[i] = stream.Element{Event: el.Event, Time: el.Time / g * g}
	}
	return out
}

// soccerStream returns the soccer single-event stream at the config's scale.
func soccerStream(cfg Config) stream.TimestampSeq {
	key := fmt.Sprintf("soccer/%v/%d", cfg.Scale, cfg.Seed)
	return cached(key, func() stream.TimestampSeq {
		p := workload.SoccerProfile(workload.SoccerID, cfg.volume(paperFeaturedN))
		return quantizeSeq(workload.SingleEvent(cfg.Seed+101, p, workload.Month), cfg.grain())
	})
}

// swimmingStream returns the swimming single-event stream.
func swimmingStream(cfg Config) stream.TimestampSeq {
	key := fmt.Sprintf("swimming/%v/%d", cfg.Scale, cfg.Seed)
	return cached(key, func() stream.TimestampSeq {
		p := workload.SwimmingProfile(workload.SwimmingID, cfg.volume(paperFeaturedN))
		return quantizeSeq(workload.SingleEvent(cfg.Seed+202, p, workload.Month), cfg.grain())
	})
}

// olympicStream returns the full olympicrio-like mixed stream.
func olympicStream(cfg Config) stream.Stream {
	key := fmt.Sprintf("olympic/%v/%d", cfg.Scale, cfg.Seed)
	return cached(key, func() stream.Stream {
		s, err := workload.Generate(workload.OlympicRioSpec(cfg.Seed, cfg.volume(paperOlympicN)))
		if err != nil {
			panic(err) // spec is program-constructed; cannot fail
		}
		return quantizeStream(s, cfg.grain())
	})
}

// politicsStream returns the full uspolitics-like mixed stream.
func politicsStream(cfg Config) stream.Stream {
	key := fmt.Sprintf("politics/%v/%d", cfg.Scale, cfg.Seed)
	return cached(key, func() stream.Stream {
		s, err := workload.Generate(workload.USPoliticsSpec(cfg.Seed, cfg.volume(paperPoliticsN)))
		if err != nil {
			panic(err)
		}
		return quantizeStream(s, cfg.grain())
	})
}

// oracleFor builds (and memoizes) the exact store of a mixed stream.
func oracleFor(key string, s stream.Stream) *exact.Store {
	return cached("oracle/"+key, func() *exact.Store {
		st, err := exact.FromStream(s)
		if err != nil {
			panic(err)
		}
		return st
	})
}

// buildPBE feeds a timestamp sequence into a PBE and finishes it.
func buildPBE(p pbe.PBE, ts stream.TimestampSeq) {
	for _, t := range ts {
		p.Append(t)
	}
	p.Finish()
}

// singlePointErrors measures |b̃(t) − b(t)| over q random point queries on a
// single-event stream. τ is the paper's figure-7 burst span (one day).
func singlePointErrors(est pbe.Estimator, exactCurve curve.Staircase, horizon int64, q int, rng *rand.Rand) metrics.ErrorStats {
	tau := workload.Day
	errs := make([]float64, q)
	for i := range errs {
		t := int64(rng.Int63n(horizon + 1))
		errs[i] = pbe.Burstiness(est, t, pbe.MustSpan(tau)) - float64(exactCurve.Burstiness(t, tau))
	}
	return metrics.SummarizeErrors(errs)
}

// mixedPointErrors measures |b̃ − b| over q random (event, time) point
// queries against an exact oracle. Events are sampled uniformly — the
// regime where a skewed dataset's unpopular events expose the collision
// error, the effect the paper's Figure 11 discussion hinges on.
func mixedPointErrors(est func(e uint64, t int64, sp pbe.Span) float64, oracle *exact.Store, q int, rng *rand.Rand) metrics.ErrorStats {
	events := oracle.Events()
	if len(events) == 0 {
		return metrics.ErrorStats{}
	}
	horizon := oracle.MaxTime()
	tau := workload.Day
	errs := make([]float64, q)
	for i := range errs {
		e := events[rng.Intn(len(events))]
		t := int64(rng.Int63n(horizon + 1))
		errs[i] = est(e, t, pbe.MustSpan(tau)) - float64(oracle.Burstiness(e, t, tau))
	}
	return metrics.SummarizeErrors(errs)
}

// curveOf converts a timestamp sequence to its exact staircase.
func curveOf(ts stream.TimestampSeq) curve.Staircase {
	c, err := curve.FromTimestamps(ts)
	if err != nil {
		panic(err)
	}
	return c
}

// scaleGamma maps a paper-scale γ (meant for 1M-element streams) to the
// configured volume so a γ keeps its relative meaning; the floor keeps the
// parameter usable at tiny test scales.
func scaleGamma(gamma float64, cfg Config) float64 {
	return math.Max(2, gamma*cfg.Scale)
}

// sweepGammas maps the paper's γ sweep to the configured volume while
// keeping the points distinct (a flat sweep would make the parameter-study
// figure degenerate at small scales).
func sweepGammas(paper []float64, cfg Config) []float64 {
	out := make([]float64, len(paper))
	for i, g := range paper {
		out[i] = math.Max(float64(i+1), g*cfg.Scale)
	}
	return out
}

// burstinessRange estimates the maximum burstiness magnitude in the
// stream, used to pick thresholds the way the paper does ("generated a set
// of burstiness threshold θ from the range of possible burstiness values").
// Bursts are rare instants, so uniform (event, time) sampling badly
// underestimates the range; instead each sampled event is probed at its own
// arrival corners, where its bursts live.
func burstinessRange(oracle *exact.Store, tau int64, rng *rand.Rand) float64 {
	events := oracle.Events()
	best := 1.0
	for i := 0; i < 300; i++ {
		e := events[rng.Intn(len(events))]
		pts := oracle.Curve(e).Points()
		if len(pts) == 0 {
			continue
		}
		for j := 0; j < 5; j++ {
			t := pts[rng.Intn(len(pts))].T
			b := math.Abs(float64(oracle.Burstiness(e, t, tau)))
			if b > best {
				best = b
			}
		}
	}
	return best
}
