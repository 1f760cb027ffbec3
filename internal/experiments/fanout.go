package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"histburst/internal/dyadic"
	"histburst/internal/metrics"
	"histburst/internal/stream"
)

func init() {
	register("abl-fanout", "ablation: spacing of the kept collision-free index levels (1 = every height) × id-space size", ablationFanout)
	register("abl-level", "ablation: γ of the steering levels as a multiple of the leaf level's, and the height it applies from, at prominent and at low thresholds", ablationLevel)
}

// indexLgKs are the id-space sizes of the event-index ablations: one with
// collision-free levels only, two with Count-Min levels below them.
var indexLgKs = []int{10, 14, 16}

// steerFactors is abl-level's sweep; 1 is every level under the leaf's γ.
var steerFactors = []float64{1, 2, 4, 8, 16}

// pbe2Gammas returns the experiments' fixed moderate PBE-2 γ (fig11's
// CM-PBE-2 cells), as an event index's leaf γ, and a steering γ factor times
// it.
func pbe2Gammas(cfg Config, factor float64) (leaf, steer float64) {
	gamma := scaleGamma(40, cfg)
	return gamma, factor * gamma
}

// spreadOlympic returns olympicrio over an id space of 2^lgK: as generated at
// K = 2¹⁰; for the larger spaces its 864 ids are spread over the space by an
// odd multiplier, so the Count-Min levels see the collisions a sparse large
// space has.
func spreadOlympic(cfg Config, lgK int) stream.Stream {
	base := olympicStream(cfg)
	if lgK <= 10 {
		return base
	}
	k := uint64(1) << lgK
	data := make(stream.Stream, len(base))
	for i, el := range base {
		data[i] = stream.Element{Event: el.Event * 0x9E3779B1 % k, Time: el.Time}
	}
	return data
}

// ablationFanout sizes the choice behind dyadic.CMPBELevels: a collision-free
// parent level is the sum of its children and carries nothing they lack, so
// how many of those levels are worth their bytes? Spacing s keeps every s-th
// collision-free height (a node there has 2^s children); spacing 1 keeps
// every height, as the published index does. Count-Min levels, present once K
// outgrows d·w cells, are kept at every spacing. The steering levels are
// under the production γ factor at every spacing (abl-level sizes that).
func ablationFanout(cfg Config) (Table, error) {
	t := Table{
		ID:    "abl-fanout",
		Title: fmt.Sprintf("event index: spacing of kept collision-free levels (olympicrio, CM-PBE-2, d=%d w=%d, steering levels at %d×γ)", cmpbeDepth, paperWidth, dyadic.SteerGammaFactor),
		Note: "bytes and build time fall with spacing and recall rises — fewer prune decisions to get wrong — at unchanged precision; " +
			"with Count-Min levels below (K ≥ 2¹⁴) more subtrees survive and each costs sketch probes, so the wider node pays in query time",
		Header: []string{"K", "spacing", "levels", "space", "build ns/elem", "precision", "recall", "point queries/query", "µs/query", "bytes"},
	}
	leaf, steer := pbe2Gammas(cfg, dyadic.SteerGammaFactor)
	for _, lgK := range indexLgKs {
		data := spreadOlympic(cfg, lgK)
		oracle := oracleFor(fmt.Sprint("olympicrio/spread", lgK, cfg.Scale, cfg.Seed), data)
		queries := eventQueries(oracle, max(cfg.Queries/2, 20), rand.New(rand.NewSource(cfg.Seed+35)))
		for spacing := 1; spacing <= 4; spacing++ {
			tree, build, err := buildIndex(lgK, dyadic.CMPBELevelsEvery(spacing, cmpbeDepth, paperWidth, cfg.Seed, leaf, steer), data)
			if err != nil {
				return Table{}, err
			}
			m, err := measureIndex(tree, queries)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("2^%d", lgK), fmt.Sprintf("%d", spacing), fmt.Sprintf("%d", tree.Levels()),
				metrics.HumanBytes(tree.Bytes()), build, m.precision, m.recall, m.pointQueries, m.micros,
				fmt.Sprintf("%d", tree.Bytes()), // exact: above height 4 a level is under the space column's last digit
			})
		}
	}
	return t, nil
}

// ablationLevel sizes dyadic.SteerGammaFactor and the height it applies from.
// Only height 0 answers a query; the levels above it decide which subtrees
// the search descends into, so their cells can be summarized under a looser γ
// than the leaf's — how much looser, and how close to the leaves, before the
// search starts cutting subtrees it should have entered? Factor f builds the
// levels at heights ≥ 4 (a cell there aggregates at least sixteen ids) under
// f·γ at the production spacing; ×1 is the index before the factor existed,
// and "×4, every height" loosens heights 1–3 as well, which only a shape with
// Count-Min levels has. Each index answers two query sets: thresholds from
// 3–20 % of the burstiness range (prominent bursts, as in fig12 and
// abl-fanout) and from 1–5 % of it, where θ approaches the steering cells'
// own burstiness envelope 4·(f·γ). olympicrio is spread over the larger id
// spaces as in abl-fanout; uspolitics, whose Zipf popularity leaves most ids
// a handful of arrivals, runs at the two narrow widths of fig12, where its
// lowest steering levels stand at heights 1 and 2.
func ablationLevel(cfg Config) (Table, error) {
	gamma := scaleGamma(40, cfg)
	t := Table{
		ID:    "abl-level",
		Title: fmt.Sprintf("event index: γ of the steering levels (CM-PBE-2, d=%d, leaf γ=%g)", cmpbeDepth, gamma),
		Note: "bytes, build and query time fall with the factor; precision is the leaf filter's and does not move; " +
			"recall holds to ×4 from height 4 on every row and gives way beyond it at low thresholds, and at once where heights 1–3 are loosened too",
		Header: []string{"dataset", "K", "width", "steer γ", "space", "build ns/elem", "precision", "recall", "point queries/query", "µs/query", "low-θ precision", "low-θ recall"},
	}
	type group struct {
		dataset string
		lgK, w  int
		data    stream.Stream
		oracle  string // oracleFor's key: abl-fanout's and fig12's, so the oracles are shared
	}
	var groups []group
	for _, lgK := range indexLgKs {
		groups = append(groups, group{"olympicrio", lgK, paperWidth, spreadOlympic(cfg, lgK),
			fmt.Sprint("olympicrio/spread", lgK, cfg.Scale, cfg.Seed)})
	}
	for _, w := range []int{272, 136} {
		groups = append(groups, group{"uspolitics", 11, w, politicsStream(cfg), "uspolitics" + fmt.Sprint(cfg.Scale, cfg.Seed)})
	}
	for _, g := range groups {
		oracle := oracleFor(g.oracle, g.data)
		n := max(cfg.Queries/2, 20)
		queries := eventQueries(oracle, n, rand.New(rand.NewSource(cfg.Seed+35)))
		low := eventQueriesIn(oracle, n, 0.01, 0.05, rand.New(rand.NewSource(cfg.Seed+36)))
		row := func(name string, levels dyadic.LevelFactory) error {
			tree, build, err := buildIndex(g.lgK, levels, g.data)
			if err != nil {
				return err
			}
			m, err := measureIndex(tree, queries)
			if err != nil {
				return err
			}
			lm, err := measureIndex(tree, low)
			if err != nil {
				return err
			}
			t.Rows = append(t.Rows, []string{
				g.dataset, fmt.Sprintf("2^%d", g.lgK), fmt.Sprintf("%d", g.w), name,
				metrics.HumanBytes(tree.Bytes()), build, m.precision, m.recall, m.pointQueries, m.micros,
				lm.precision, lm.recall,
			})
			return nil
		}
		for _, factor := range steerFactors {
			leaf, steer := pbe2Gammas(cfg, factor)
			if err := row(fmt.Sprintf("×%g", factor), dyadic.CMPBELevels(cmpbeDepth, g.w, cfg.Seed, leaf, steer)); err != nil {
				return Table{}, err
			}
		}
		leaf, steer := pbe2Gammas(cfg, dyadic.SteerGammaFactor)
		// A factory handed steer for both γs builds every height under it;
		// only its leaf level is not wanted.
		leaves := dyadic.CMPBELevels(cmpbeDepth, g.w, cfg.Seed, leaf, leaf)
		above := dyadic.CMPBELevels(cmpbeDepth, g.w, cfg.Seed, steer, steer)
		if err := row(fmt.Sprintf("×%d, every height", dyadic.SteerGammaFactor), func(level int, ids uint64) (dyadic.Level, error) {
			if level == 0 {
				return leaves(level, ids)
			}
			return above(level, ids)
		}); err != nil {
			return Table{}, err
		}
	}
	return t, nil
}

// buildIndex builds one index over 2^lgK ids the way Detector.Append does —
// chunks of 4096 through AppendBatch, here on one goroutine so the build
// column (ns per element) compares work, not cores. Every id is below K, so
// AppendBatch, which folds larger ones in place, leaves data as it is.
func buildIndex(lgK int, levels dyadic.LevelFactory, data stream.Stream) (*dyadic.Tree, string, error) {
	tree, err := dyadic.New(uint64(1)<<lgK, levels)
	if err != nil {
		return nil, "", err
	}
	sw := metrics.NewStopwatch()
	for lo := 0; lo < len(data); lo += 4096 {
		tree.AppendBatch(data[lo:min(lo+4096, len(data))], 1)
	}
	tree.Finish()
	return tree, fmt.Sprintf("%d", sw.Elapsed().Nanoseconds()/int64(len(data))), nil
}

// indexMeasure is one query set's columns.
type indexMeasure struct {
	precision, recall, pointQueries, micros string
}

func measureIndex(tree *dyadic.Tree, queries []eventQuery) (indexMeasure, error) {
	agg, stats, spent, err := askEvents(tree, queries)
	if err != nil {
		return indexMeasure{}, err
	}
	return indexMeasure{
		precision:    fmtF(agg.Precision()),
		recall:       fmtF(agg.Recall()),
		pointQueries: fmt.Sprintf("%d", stats.PointQueries/len(queries)),
		micros:       fmt.Sprintf("%.1f", float64(spent)/float64(time.Microsecond)/float64(len(queries))),
	}, nil
}
