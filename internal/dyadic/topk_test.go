package dyadic

import (
	"slices"
	"sort"
	"testing"

	"histburst/internal/exact"
	"histburst/internal/pbe"
)

func TestTopBurstyExactLevels(t *testing.T) {
	const k = 64
	data := burstyStream(13, k, 3000)
	tr, err := New(k, exactFactory)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.New()
	for _, el := range data {
		tr.Append(el.Event, el.Time)
		oracle.Append(el.Event, el.Time)
	}
	tr.Finish()

	ts, tau := int64(1549), int64(50)
	var stats QueryStats
	got := tr.TopBursty(ts, 2, pbe.MustSpan(tau), &stats)
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	// Results are sorted descending and self-consistent with the oracle.
	for i, s := range got {
		if i > 0 && s.Burstiness > got[i-1].Burstiness {
			t.Fatalf("results not descending: %v", got)
		}
		if exactB := float64(oracle.Burstiness(s.Event, ts, tau)); exactB != s.Burstiness {
			t.Fatalf("score for %d is %v, oracle says %v", s.Event, s.Burstiness, exactB)
		}
	}
	// The planted heavy hitters (events 3 and 63) must headline.
	if got[0].Event != 3 {
		t.Fatalf("top event = %d, want 3 (the biggest planted burst): %v", got[0].Event, got)
	}
	if got[1].Event != 63 {
		t.Fatalf("second planted burst missing from top-2: %v", got)
	}
	// Best-first search should beat a full scan for small k.
	if stats.PointQueries >= k {
		t.Fatalf("top-k used %d point queries, a full scan is %d", stats.PointQueries, k)
	}
}

func TestTopBurstyMatchesBruteForceRanking(t *testing.T) {
	const k = 32
	data := burstyStream(17, k, 2000)
	tr, _ := New(k, exactFactory)
	oracle := exact.New()
	for _, el := range data {
		tr.Append(el.Event, el.Time)
		oracle.Append(el.Event, el.Time)
	}
	tr.Finish()
	ts, tau := int64(1030), int64(40)
	got := tr.TopBursty(ts, 5, pbe.MustSpan(tau), nil)
	// Brute-force ranking.
	type es struct {
		e uint64
		b int64
	}
	var all []es
	for e := uint64(0); e < k; e++ {
		all = append(all, es{e, oracle.Burstiness(e, ts, tau)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].b > all[j].b })
	// The returned scores must not be worse than the true k-th best beyond
	// the (documented) cancellation caveat; on this workload the top scores
	// are strongly positive and must match exactly.
	if len(got) == 0 || got[0].Burstiness != float64(all[0].b) {
		t.Fatalf("top-1 score %v, brute force %v", got, all[0])
	}
}

// TestTopBurstyValidation: an empty tree answers with zero scores. k is not
// checked here: every entry of a top-k query checks it (pbe.CheckTopK).
func TestTopBurstyValidation(t *testing.T) {
	tr, _ := New(8, exactFactory)
	got := tr.TopBursty(10, 3, pbe.MustSpan(5), nil)
	// Empty tree: every leaf scores zero; results exist but are all zero.
	for _, s := range got {
		if s.Burstiness != 0 {
			t.Fatalf("empty tree produced score %v", s)
		}
	}
}

// TestTopBurstyTiesRankByID: equal scores rank by ascending id, at the k-th
// place too, so which of several tied events make the cut never depends on
// the order the search reached them — over exact levels at every height and
// over the production index shape.
func TestTopBurstyTiesRankByID(t *testing.T) {
	f, steer := indexGammas(2)
	for name, levels := range map[string]LevelFactory{"exact": exactFactory, "CM-PBE": CMPBELevels(4, 64, 11, f, steer)} {
		tr, err := New(64, levels)
		if err != nil {
			t.Fatal(err)
		}
		// At t = 100 over τ = 10: event 50 at 8, five others tied at 5, the
		// rest at 0.
		for _, e := range []uint64{40, 9, 33, 2, 17} {
			for j := 0; j < 5; j++ {
				tr.Append(e, 95)
			}
		}
		for j := 0; j < 8; j++ {
			tr.Append(50, 95)
		}
		tr.Finish()
		want := []EventScore{{50, 8}, {2, 5}, {9, 5}, {17, 5}, {33, 5}, {40, 5}, {0, 0}, {1, 0}}
		for k := 1; k <= len(want); k++ {
			got := tr.TopBursty(100, k, pbe.MustSpan(10), nil)
			if !slices.Equal(got, want[:k]) {
				t.Errorf("%s: TopBursty(k=%d) = %v, want %v", name, k, got, want[:k])
			}
		}
	}
}

func TestInsertScore(t *testing.T) {
	var rs []EventScore
	for _, v := range []float64{3, 1, 4, 1, 5} {
		rs = insertScore(rs, EventScore{Event: uint64(v), Burstiness: v}, 3)
	}
	if len(rs) != 3 || rs[0].Burstiness != 5 || rs[1].Burstiness != 4 || rs[2].Burstiness != 3 {
		t.Fatalf("insertScore = %v", rs)
	}
}
