package experiments

import (
	"fmt"
	"math/rand"

	"histburst/internal/metrics"
	"histburst/internal/pbe"
	"histburst/internal/pbe1"
	"histburst/internal/pbe2"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

func init() {
	register("fig10a", "single event stream: PBE-1 vs PBE-2 accuracy at equal space", fig10a)
	register("fig10b", "single event stream: accuracy vs curve size n at fixed space", fig10b)
}

// buildPBE2At builds a PBE-2 for the stream whose footprint lands close to
// targetBytes, by bisecting on γ (space decreases monotonically in γ).
func buildPBE2At(ts stream.TimestampSeq, targetBytes int) *pbe2.Builder {
	lo, hi := 1.0, 100000.0
	var best *pbe2.Builder
	for iter := 0; iter < 24; iter++ {
		mid := (lo + hi) / 2
		b, err := pbe2.New(mid)
		if err != nil {
			break
		}
		buildPBE(b, ts)
		if best == nil || absInt(b.Bytes()-targetBytes) < absInt(best.Bytes()-targetBytes) {
			best = b
		}
		if b.Bytes() > targetBytes {
			lo = mid // need more error tolerance → fewer segments
		} else {
			hi = mid
		}
	}
	return best
}

// buildPBE1At builds a PBE-1 whose footprint lands close to targetBytes by
// choosing η from the chunk count (bytes ≈ 16·chunks·η).
func buildPBE1At(ts stream.TimestampSeq, targetBytes int) (*pbe1.Builder, error) {
	corners := curveOf(ts).Len()
	chunks := (corners + pbe1BufferN - 1) / pbe1BufferN // every started buffer flushes once
	if chunks < 1 {
		chunks = 1
	}
	eta := targetBytes / (16 * chunks)
	if eta < 2 {
		eta = 2
	}
	if eta >= pbe1BufferN {
		eta = pbe1BufferN - 1
	}
	b, err := pbe1.New(pbe1BufferN, eta)
	if err != nil {
		return nil, err
	}
	buildPBE(b, ts)
	return b, nil
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// fig10a reproduces Figure 10a: at matched space budgets, both PBEs achieve
// good accuracy and PBE-1 (optimal within its class) stays at or below
// PBE-2's error.
func fig10a(cfg Config) (Table, error) {
	soccerTS := soccerStream(cfg)
	swimmingTS := swimmingStream(cfg)
	soccerC := curveOf(soccerTS)
	swimmingC := curveOf(swimmingTS)

	t := Table{
		ID:     "fig10a",
		Title:  "PBE-1 vs PBE-2 at equal space (single event stream)",
		Note:   "error falls with space for both; PBE-2 wins at starvation budgets, PBE-1 from a few dozen points per chunk upward",
		Header: []string{"target space", "pbe1 err (soccer)", "pbe2 err (soccer)", "pbe1 err (swim)", "pbe2 err (swim)"},
	}
	// Space budgets shaped like the paper's x-axis (10¹–10² KB at full
	// scale), scaled with volume.
	budgets := []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	rng := rand.New(rand.NewSource(cfg.Seed + 10))
	for _, budget := range budgets {
		row := []string{metrics.HumanBytes(budget)}
		for _, ds := range []struct {
			ts stream.TimestampSeq
			c  interface {
				Burstiness(t, tau int64) int64
			}
		}{{soccerTS, soccerC}, {swimmingTS, swimmingC}} {
			horizon := ds.ts[len(ds.ts)-1]
			b1, err := buildPBE1At(ds.ts, budget)
			if err != nil {
				return Table{}, err
			}
			b2 := buildPBE2At(ds.ts, budget)
			e1 := singleErrVs(b1, ds.c, horizon, cfg.Queries, rng)
			e2 := singleErrVs(b2, ds.c, horizon, cfg.Queries, rng)
			row = append(row, fmtF(e1.Mean), fmtF(e2.Mean))
		}
		// Reorder: header wants pbe1/pbe2 soccer then pbe1/pbe2 swim —
		// already in that order.
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// singleErrVs is singlePointErrors against any exact burstiness source.
func singleErrVs(est pbe.Estimator, c interface {
	Burstiness(t, tau int64) int64
}, horizon int64, q int, rng *rand.Rand) metrics.ErrorStats {
	tau := workload.Day
	errs := make([]float64, q)
	for i := range errs {
		ts := int64(rng.Int63n(horizon + 1))
		errs[i] = pbe.Burstiness(est, ts, pbe.MustSpan(tau)) - float64(c.Burstiness(ts, tau))
	}
	return metrics.SummarizeErrors(errs)
}

// fig10b reproduces Figure 10b: with the space fixed (10 KB in the paper),
// the error grows as the exact curve has more corners n to summarize —
// fastest where the incoming rate changes a lot.
func fig10b(cfg Config) (Table, error) {
	soccerTS := soccerStream(cfg)
	swimmingTS := swimmingStream(cfg)

	const budget = 10 << 10
	t := Table{
		ID:     "fig10b",
		Title:  fmt.Sprintf("accuracy vs curve size n at fixed %s", metrics.HumanBytes(budget)),
		Note:   "error grows with n: more curve information squeezed into the same bytes",
		Header: []string{"n (corners)", "pbe1 err (soccer)", "pbe2 err (soccer)", "pbe1 err (swim)", "pbe2 err (swim)"},
	}
	fullSoccer := curveOf(soccerTS).Len()
	fullSwim := curveOf(swimmingTS).Len()
	rng := rand.New(rand.NewSource(cfg.Seed + 20))
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		soccerPrefix := prefixWithCorners(soccerTS, int(frac*float64(fullSoccer)))
		swimPrefix := prefixWithCorners(swimmingTS, int(frac*float64(fullSwim)))
		row := []string{fmt.Sprintf("%d / %d", curveOf(soccerPrefix).Len(), curveOf(swimPrefix).Len())}
		for _, ts := range []stream.TimestampSeq{soccerPrefix, swimPrefix} {
			horizon := ts[len(ts)-1]
			c := curveOf(ts)
			b1, err := buildPBE1At(ts, budget)
			if err != nil {
				return Table{}, err
			}
			b2 := buildPBE2At(ts, budget)
			e1 := singlePointErrors(b1, c, horizon, cfg.Queries, rng)
			e2 := singlePointErrors(b2, c, horizon, cfg.Queries, rng)
			row = append(row, fmtF(e1.Mean), fmtF(e2.Mean))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// prefixWithCorners returns the longest stream prefix whose exact curve has
// at most n corners.
func prefixWithCorners(ts stream.TimestampSeq, n int) stream.TimestampSeq {
	if n < 2 {
		n = 2
	}
	corners := 0
	for i, v := range ts {
		if i == 0 || v != ts[i-1] {
			corners++
			if corners > n {
				return ts[:i]
			}
		}
	}
	return ts
}
