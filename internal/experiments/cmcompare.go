package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"histburst/internal/cmpbe"
	"histburst/internal/cmsketch"
	"histburst/internal/metrics"
)

func init() {
	register("abl-cm", "motivation: a plain Count-Min sketch has no historical axis; CM-PBE buys the whole history", ablationCM)
}

// ablationCM demonstrates the gap that motivates the paper (Section I/II):
// classic stream sketches summarize "the entire stream up to now". A plain
// Count-Min sketch with the same layout estimates final frequencies F_e(T)
// well — but it cannot answer F_e(t) for any t < T, while CM-PBE answers
// every historical instant. The "historical estimate" we charitably extract
// from plain CM is its only option: the final count (equivalently, a linear
// interpolation would need per-key timing it does not keep).
func ablationCM(cfg Config) (Table, error) {
	data := olympicStream(cfg)
	oracle := oracleFor("olympicrio"+fmt.Sprint(cfg.Scale, cfg.Seed), data)

	const w = 544
	cm, err := cmsketch.NewWithDims(cmpbeDepth, w, cfg.Seed)
	if err != nil {
		return Table{}, err
	}
	sk, err := cmpbe.New(cmpbeDepth, w, cfg.Seed, scaleGamma(40, cfg))
	if err != nil {
		return Table{}, err
	}
	for _, el := range data {
		cm.Inc(el.Event)
		sk.Append(el.Event, el.Time)
	}
	sk.Finish()

	rng := rand.New(rand.NewSource(cfg.Seed + 55))
	horizon := oracle.MaxTime()
	// Query the events an analyst would actually ask about: the populous
	// ones (frequency-weighted sampling). On the long Zipf tail both
	// sketches' absolute errors are tiny and uninformative.
	all := oracle.Events()
	var events []uint64
	for _, e := range all {
		if oracle.CumFreq(e, horizon) >= oracle.Len()/int64(len(all)) {
			events = append(events, e)
		}
	}
	if len(events) == 0 {
		events = all
	}

	type row struct {
		name  string
		est   func(e uint64, t int64) float64
		bytes int
	}
	rows := []row{
		{"plain Count-Min", func(e uint64, t int64) float64 { return float64(cm.Estimate(e)) }, cm.Bytes()},
		{"CM-PBE-2", func(e uint64, t int64) float64 { return sk.EstimateF(e, t) }, sk.Bytes()},
	}

	t := Table{
		ID:    "abl-cm",
		Title: fmt.Sprintf("plain Count-Min vs CM-PBE (olympicrio, d=%d w=%d)", cmpbeDepth, w),
		Note:  "classic sketches only summarize 'up to now': fine at t=T, useless mid-history — the gap the paper closes",
		Header: []string{"method", "space",
			"F err @ t=T", "F err @ t=T/2", "F err @ t=T/4"},
	}
	for _, r := range rows {
		var errT, errHalf, errQuarter float64
		for i := 0; i < cfg.Queries; i++ {
			e := events[rng.Intn(len(events))]
			errT += math.Abs(r.est(e, horizon) - float64(oracle.CumFreq(e, horizon)))
			errHalf += math.Abs(r.est(e, horizon/2) - float64(oracle.CumFreq(e, horizon/2)))
			errQuarter += math.Abs(r.est(e, horizon/4) - float64(oracle.CumFreq(e, horizon/4)))
		}
		n := float64(cfg.Queries)
		t.Rows = append(t.Rows, []string{
			r.name, metrics.HumanBytes(r.bytes),
			fmtF(errT / n), fmtF(errHalf / n), fmtF(errQuarter / n),
		})
	}
	return t, nil
}
