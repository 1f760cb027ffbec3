package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"histburst/internal/dyadic"
)

// tinyConfig keeps every experiment fast enough for the unit-test suite;
// under the race detector its streams shrink by raceScale, at which every
// assertion its tests make still holds.
func tinyConfig() Config {
	return Config{Scale: 0.004 * raceScale, Queries: 30, Seed: 1}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run("fig7", Config{Scale: 0, Queries: 10}); err == nil {
		t.Error("scale=0 accepted")
	}
	if _, err := Run("fig7", Config{Scale: 1, Queries: 0}); err == nil {
		t.Error("queries=0 accepted")
	}
	if _, err := Run("no-such-figure", tinyConfig()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestListAndDescribe(t *testing.T) {
	ids := List()
	want := []string{"abl-cap", "abl-cm", "abl-dp", "abl-fanout", "abl-klein", "abl-level", "abl-med", "fig10a", "fig10b", "fig11", "fig12", "fig13", "fig7", "fig8", "fig9", "tbl-base"}
	if len(ids) != len(want) {
		t.Fatalf("List = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("List = %v, want %v", ids, want)
		}
		if Describe(ids[i]) == "" {
			t.Errorf("no description for %s", ids[i])
		}
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	cfg := tinyConfig()
	for _, id := range List() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if tbl.ID != id {
				t.Errorf("table id %q != %q", tbl.ID, id)
			}
			if len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
				t.Fatalf("empty table: %+v", tbl)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tbl.Header))
				}
			}
			out := tbl.Format()
			if !strings.Contains(out, tbl.Title) {
				t.Error("Format missing title")
			}
		})
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl, err := Run("fig7", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 31 {
		t.Fatalf("fig7 should have 31 day rows, got %d", len(tbl.Rows))
	}
	// Soccer's largest burstiness lands near day 20; swimming's late-month
	// rate is near zero.
	bestDay, bestB := 0, int64(-1<<62)
	var lateSwimRate int64
	for _, row := range tbl.Rows {
		day, _ := strconv.Atoi(row[0])
		b, _ := strconv.ParseInt(row[2], 10, 64)
		if b > bestB {
			bestB, bestDay = b, day
		}
		if day >= 25 {
			r, _ := strconv.ParseInt(row[3], 10, 64)
			if r > lateSwimRate {
				lateSwimRate = r
			}
		}
	}
	if bestDay < 18 || bestDay > 22 {
		t.Errorf("soccer peak burstiness at day %d, want ≈20", bestDay)
	}
	var firstWeekSwim int64
	for _, row := range tbl.Rows[:9] {
		r, _ := strconv.ParseInt(row[3], 10, 64)
		if r > firstWeekSwim {
			firstWeekSwim = r
		}
	}
	if lateSwimRate*5 > firstWeekSwim {
		t.Errorf("swimming late rate %d not small vs early %d", lateSwimRate, firstWeekSwim)
	}
}

func TestFig9SpaceMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl, err := Run("fig9", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Space must not grow as gamma grows (soccer column).
	prev := int64(1) << 62
	for _, row := range tbl.Rows {
		kb := parseBytes(t, row[1])
		if kb > prev {
			t.Fatalf("space grew with gamma: %v", tbl.Format())
		}
		prev = kb
	}
}

// indexConfig is the smallest scale at which the event-index experiments'
// precision and recall are more signal than noise (at tinyConfig's 0.004 the
// uspolitics stream has next to nothing bursty to recall). It keeps this
// scale under the race detector: TestFig12Shape fails at half of it and
// TestAblationFanoutShape at a quarter.
func indexConfig() Config {
	return Config{Scale: 0.008, Queries: 60, Seed: 1}
}

func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parseRatio(%q): %v", s, err)
	}
	return v
}

// TestFig12Shape pins Figure 12 as EXPERIMENTS.md reads it, for the published
// index and the kept-levels one alike: precision and recall rise with width
// (to within the noise of sixty queries) on both datasets; the published
// index keeps precision ≥ recall — our documented deviation from the paper's
// ordering, whose cause is the pruning bound; and the kept-levels index
// recalls at least what the published one does at every width, which is the
// claim the library's index rests on.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl, err := Run("fig12", indexConfig())
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ dataset, variant, index string }
	type point struct{ precision, recall float64 }
	series := make(map[key][]point) // in the table's width order: 136, 272, 544
	for _, row := range tbl.Rows {
		k := key{row[0], row[1], row[3]}
		series[k] = append(series[k], point{parseRatio(t, row[5]), parseRatio(t, row[6])})
	}
	if len(series) != 8 {
		t.Fatalf("fig12 has %d (dataset, variant, index) series, want 8:\n%s", len(series), tbl.Format())
	}
	const published, kept = "Algorithm 3 (every level)", "kept levels"
	const noise = 0.05
	for k, pts := range series {
		if len(pts) != 3 {
			t.Fatalf("%v: %d widths, want 3", k, len(pts))
		}
		first, last := pts[0], pts[len(pts)-1]
		if last.recall < first.recall-noise || last.precision < first.precision-noise {
			t.Errorf("%v: precision %.3f → %.3f, recall %.3f → %.3f from the narrowest to the widest sketch; both should rise",
				k, first.precision, last.precision, first.recall, last.recall)
		}
		if k.index != published {
			continue
		}
		for i, p := range pts {
			if p.precision < p.recall {
				t.Errorf("%v width #%d: precision %.3f below recall %.3f; the published index errs by missing, not by inventing", k, i, p.precision, p.recall)
			}
			if got := series[key{k.dataset, k.variant, kept}][i]; got.recall < p.recall {
				t.Errorf("%v width #%d: kept levels recall %.3f, every level %.3f", k, i, got.recall, p.recall)
			}
		}
	}
	if t.Failed() {
		t.Log(tbl.Format())
	}
}

// TestAblationFanoutShape pins what abl-fanout is cited for: at every id-space
// size the index shrinks strictly as the kept collision-free levels thin out
// (on the exact bytes column: under the steering factor a level above height 4
// is less than the space column's last digit), the widest spacing recalls at
// least what every height does, and precision does not pay for it.
func TestAblationFanoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl, err := Run("abl-fanout", indexConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 {
		t.Fatalf("abl-fanout has %d rows, want 3 id spaces × 4 spacings:\n%s", len(tbl.Rows), tbl.Format())
	}
	const exact = 9 // the bytes column
	for g := 0; g < len(tbl.Rows); g += 4 {
		rows := tbl.Rows[g : g+4]
		for i, row := range rows {
			if row[0] != rows[0][0] || row[1] != strconv.Itoa(i+1) {
				t.Fatalf("row %d is K=%s spacing %s, want K=%s spacing %d", g+i, row[0], row[1], rows[0][0], i+1)
			}
			if i > 0 && parseBytes(t, row[exact]) >= parseBytes(t, rows[i-1][exact]) {
				t.Errorf("K=%s: %s bytes at spacing %d, %s at spacing %d; it should fall", row[0], row[exact], i+1, rows[i-1][exact], i)
			}
		}
		every, widest := rows[0], rows[3]
		if parseRatio(t, widest[6]) < parseRatio(t, every[6]) {
			t.Errorf("K=%s: recall %s at spacing 4, %s with every level", every[0], widest[6], every[6])
		}
		if parseRatio(t, widest[5]) < parseRatio(t, every[5])-0.01 {
			t.Errorf("K=%s: precision %s at spacing 4, %s with every level", every[0], widest[5], every[5])
		}
	}
	if t.Failed() {
		t.Log(tbl.Format())
	}
}

// TestAblationLevelShape pins what abl-level is cited for, on every
// (dataset, K, width) group: with the levels from height 4 up under
// dyadic.SteerGammaFactor × γ the index is smaller than with every level
// under γ — at most 0.6 of it where no Count-Min level stands in the way —
// recall is within 0.01 of it at prominent thresholds and within 0.04 at the
// lowest, where θ is inside the steering cells' own envelope, and precision
// is no lower. The "every height" rows are the table's evidence for sparing
// heights 1–3 and are not asserted on: no caller builds that shape.
func TestAblationLevelShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl, err := Run("abl-level", Config{Scale: 0.02, Queries: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		name, space, precision, recall, lowPrecision, lowRecall = 3, 4, 6, 7, 10, 11

		variants = 6 // ×1, ×2, ×4, ×8, ×16, and ×4 at every height
	)
	if len(tbl.Rows) != 5*variants {
		t.Fatalf("abl-level has %d rows, want 5 groups × %d variants:\n%s", len(tbl.Rows), variants, tbl.Format())
	}
	production := fmt.Sprintf("×%d", dyadic.SteerGammaFactor)
	for g := 0; g < len(tbl.Rows); g += variants {
		rows := tbl.Rows[g : g+variants]
		base, prod := rows[0], rows[2]
		group := strings.Join(base[:3], " ")
		if base[name] != "×1" || prod[name] != production {
			t.Fatalf("%s: rows %q, %q; want ×1 and %s", group, base[name], prod[name], production)
		}
		limit := 1.0
		if group == "olympicrio 2^10 544" {
			limit = 0.6
		}
		if got, was := parseBytes(t, prod[space]), parseBytes(t, base[space]); got >= was || float64(got) > limit*float64(was) {
			t.Errorf("%s: space %s at %s, %s at ×1; want less, and at most %.1f of it", group, prod[space], production, base[space], limit)
		}
		for _, c := range []struct {
			what      string
			col, pcol int
			slack     float64
		}{
			{"prominent", recall, precision, 0.01},
			{"low", lowRecall, lowPrecision, 0.04},
		} {
			if got, was := parseRatio(t, prod[c.col]), parseRatio(t, base[c.col]); got < was-c.slack {
				t.Errorf("%s: recall %.3f at %s, %.3f at ×1 (%s thresholds); want within %.2f", group, got, production, was, c.what, c.slack)
			}
			if got, was := parseRatio(t, prod[c.pcol]), parseRatio(t, base[c.pcol]); got < was-0.001 {
				t.Errorf("%s: precision %.3f at %s, %.3f at ×1 (%s thresholds)", group, got, production, was, c.what)
			}
		}
	}
	if t.Failed() {
		t.Log(tbl.Format())
	}
}

func parseBytes(t *testing.T, s string) int64 {
	t.Helper()
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "MB"):
		mult = 1 << 20
		s = strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult = 1 << 10
		s = strings.TrimSuffix(s, "KB")
	default:
		s = strings.TrimSuffix(s, "B")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parseBytes(%q): %v", s, err)
	}
	return int64(v * float64(mult))
}

func TestAblationDPEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl, err := Run("abl-dp", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("DP variants disagree: %v", tbl.Format())
		}
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tbl := Table{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"lonnng", "1"}},
	}
	out := tbl.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+0+1 {
		t.Fatalf("unexpected line count: %q", out)
	}
	// Separator row matches header width.
	if !strings.HasPrefix(lines[2], "------") {
		t.Fatalf("separator missing: %q", lines[2])
	}
}
