package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"histburst/internal/cmpbe"
	"histburst/internal/metrics"
	"histburst/internal/pbe"
	"histburst/internal/pbe1"
	"histburst/internal/workload"
)

func init() {
	register("abl-dp", "ablation: naive O(n²η) DP vs convex-hull-trick O(nη) PBE-1 construction", ablationDP)
	register("abl-med", "ablation: median vs min estimator inside CM-PBE", ablationMedian)
}

// ablationDP checks the DESIGN.md claim behind PBE-1: the convex-hull-trick
// construction must produce the same optimal error as Algorithm 1's direct
// dynamic program while being asymptotically faster.
func ablationDP(cfg Config) (Table, error) {
	ts := soccerStream(cfg)
	t := Table{
		ID:     "abl-dp",
		Title:  "PBE-1 construction: naive DP vs convex hull trick",
		Note:   "identical area error; CHT construction is much faster at larger η",
		Header: []string{"eta", "naive construct", "cht construct", "naive Δ", "cht Δ", "equal"},
	}
	for _, eta := range []int{50, 150, 400} {
		naive, err := pbe1.New(pbe1BufferN, eta, pbe1.WithNaiveDP())
		if err != nil {
			return Table{}, err
		}
		sw := metrics.NewStopwatch()
		buildPBE(naive, ts)
		naiveTime := sw.Elapsed()

		cht, err := pbe1.New(pbe1BufferN, eta)
		if err != nil {
			return Table{}, err
		}
		sw = metrics.NewStopwatch()
		buildPBE(cht, ts)
		chtTime := sw.Elapsed()

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", eta),
			naiveTime.String(), chtTime.String(),
			fmt.Sprintf("%d", naive.AreaError()), fmt.Sprintf("%d", cht.AreaError()),
			fmt.Sprintf("%v", naive.AreaError() == cht.AreaError()),
		})
	}
	return t, nil
}

// ablationMedian compares the median-of-rows estimator (Section IV's choice
// for CM-PBE) with plain Count-Min's min-of-rows on a mixed stream: the
// min inherits the PBE's downward bias, the median balances it against
// collision inflation.
func ablationMedian(cfg Config) (Table, error) {
	data := politicsStream(cfg)
	oracle := oracleFor("uspolitics"+fmt.Sprint(cfg.Scale, cfg.Seed), data)
	t := Table{
		ID:    "abl-med",
		Title: "CM-PBE estimator: median vs min of rows (uspolitics)",
		Note: "for burstiness — a signed difference of three curve evaluations — per-row medians beat " +
			"splicing the min-F rows together; for raw frequency the min can win when cells barely underestimate",
		Header: []string{"cells", "b̃ median err", "b̃ min-F err", "F̃ median err", "F̃ min err"},
	}
	w := paperWidth
	cells := []struct {
		name string
		mk   func() (mixedSketch, error)
	}{
		{"PBE-2 tight (γ=2)", func() (mixedSketch, error) { return cmpbe.New(cmpbeDepth, w, cfg.Seed, 2) }},
		{"PBE-2 coarse", func() (mixedSketch, error) { return cmpbe.New(cmpbeDepth, w, cfg.Seed, scaleGamma(400, cfg)) }},
		{"PBE-1 coarse (η=8)", func() (mixedSketch, error) { return newCMPBE1(cmpbeDepth, w, cfg.Seed, 8) }},
	}
	for _, cell := range cells {
		sk, err := cell.mk()
		if err != nil {
			return Table{}, err
		}
		for _, el := range data {
			sk.Append(el.Event, el.Time)
		}
		sk.Finish()
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		events := oracle.Events()
		horizon := oracle.MaxTime()
		tau := workload.Day
		var bMed, bMin, fMed, fMin float64
		for i := 0; i < cfg.Queries; i++ {
			e := events[rng.Intn(len(events))]
			qt := rng.Int63n(horizon + 1)
			wantB := float64(oracle.Burstiness(e, qt, tau))
			bMed += math.Abs(sk.Burstiness(e, qt, pbe.MustSpan(tau)) - wantB)
			// The min-F alternative evaluates equation (2) on spliced
			// min-of-rows frequency estimates, the way a plain Count-Min
			// user would.
			q0, q1, _ := pbe.MustSpan(tau).Instants(qt)
			minB := sk.EstimateFMin(e, qt) - 2*sk.EstimateFMin(e, q1) + sk.EstimateFMin(e, q0)
			bMin += math.Abs(minB - wantB)
			wantF := float64(oracle.CumFreq(e, qt))
			fMed += math.Abs(sk.EstimateF(e, qt) - wantF)
			fMin += math.Abs(sk.EstimateFMin(e, qt) - wantF)
		}
		n := float64(cfg.Queries)
		t.Rows = append(t.Rows, []string{
			cell.name,
			fmtF(bMed / n), fmtF(bMin / n),
			fmtF(fMed / n), fmtF(fMin / n),
		})
	}
	return t, nil
}
