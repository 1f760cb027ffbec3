package experiments

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
	"histburst/internal/metrics"
	"histburst/internal/stream"
)

func init() {
	register("abl-fanout", "ablation: spacing of the kept collision-free index levels (1 = Algorithm 3 as published) × id-space size", ablationFanout)
}

// ablationFanout sizes the choice behind dyadic.CMPBELevels: a collision-free
// parent level is the sum of its children and carries nothing they lack, so
// how many of those levels are worth their bytes? Spacing s keeps every s-th
// collision-free height (a node there has 2^s children); spacing 1 is the
// published index. Count-Min levels, present once K outgrows d·w cells, are
// kept at every spacing. The stream is olympicrio at K = 2¹⁰; for the larger
// id spaces its 864 ids are spread over the space by an odd multiplier, so
// the Count-Min levels see the collisions a sparse large space has.
func ablationFanout(cfg Config) (Table, error) {
	t := Table{
		ID:    "abl-fanout",
		Title: fmt.Sprintf("event index: spacing of kept collision-free levels (olympicrio, CM-PBE-2, d=%d w=%d)", cmpbeDepth, paperWidth),
		Note: "bytes and build time fall with spacing and recall rises — fewer prune decisions to get wrong — at unchanged precision; " +
			"with Count-Min levels below (K ≥ 2¹⁴) more subtrees survive and each costs sketch probes, so the wider node pays in query time",
		Header: []string{"K", "spacing", "levels", "space", "build ns/elem", "precision", "recall", "point queries/query", "µs/query"},
	}
	base := olympicStream(cfg)
	_, f2, err := cellFactories(cfg)
	if err != nil {
		return Table{}, err
	}
	for _, lgK := range []int{10, 14, 16} {
		k := uint64(1) << lgK
		data := base
		if lgK > 10 {
			data = make(stream.Stream, len(base))
			for i, el := range base {
				data[i] = stream.Element{Event: el.Event * 0x9E3779B1 % k, Time: el.Time}
			}
		}
		oracle := oracleFor(fmt.Sprint("olympicrio/spread", lgK, cfg.Scale, cfg.Seed), data)
		queries := eventQueries(oracle, max(cfg.Queries/2, 20), rand.New(rand.NewSource(cfg.Seed+35)))
		for spacing := 1; spacing <= 4; spacing++ {
			row, err := fanoutRow(k, spacing, cfg.Seed, f2, data, queries)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// fanoutRow builds one index the way Detector.Append does — chunks of 4096
// through AppendBatch, here on one goroutine so the build column compares
// work, not cores — and measures it. Every id is below k, so AppendBatch,
// which folds larger ones in place, leaves data as it is.
func fanoutRow(k uint64, spacing int, seed int64, cell cmpbe.Factory, data stream.Stream, queries []eventQuery) ([]string, error) {
	tree, err := dyadic.New(k, dyadic.CMPBELevelsEvery(spacing, cmpbeDepth, paperWidth, seed, cell))
	if err != nil {
		return nil, err
	}
	sw := metrics.NewStopwatch()
	for lo := 0; lo < len(data); lo += 4096 {
		tree.AppendBatch(data[lo:min(lo+4096, len(data))], 1)
	}
	tree.Finish()
	build := sw.Elapsed()
	agg, stats, spent, err := askEvents(tree, queries)
	if err != nil {
		return nil, err
	}
	return []string{
		fmt.Sprintf("2^%d", bits.TrailingZeros64(k)),
		fmt.Sprintf("%d", spacing),
		fmt.Sprintf("%d", tree.Levels()),
		metrics.HumanBytes(tree.Bytes()),
		fmt.Sprintf("%d", build.Nanoseconds()/int64(len(data))),
		fmtF(agg.Precision()), fmtF(agg.Recall()),
		fmt.Sprintf("%d", stats.PointQueries/len(queries)),
		fmt.Sprintf("%.1f", float64(spent)/float64(time.Microsecond)/float64(len(queries))),
	}, nil
}
