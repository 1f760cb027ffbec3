package dyadic

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"histburst/internal/cmpbe"
	"histburst/internal/exact"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// exactLevel wraps the exact store as a Level, letting tests exercise the
// pruning logic with zero estimation error.
type exactLevel struct{ st *exact.Store }

func newExactLevel() *exactLevel { return &exactLevel{st: exact.New()} }

func (l *exactLevel) Append(e uint64, t int64) { l.st.Append(e, t) }
func (l *exactLevel) Finish()                  {}
func (l *exactLevel) Burstiness(e uint64, t int64, sp pbe.Span) float64 {
	t0, t1, t2 := sp.Instants(t)
	return float64(l.st.CumFreq(e, t2) - 2*l.st.CumFreq(e, t1) + l.st.CumFreq(e, t0))
}
func (l *exactLevel) Bytes() int { return l.st.Bytes() }

func exactFactory(level int, ids uint64) (Level, error) { return newExactLevel(), nil }

// leafCounts returns what a tree of CM-PBE levels stores as its own counters:
// its leaf level's element count and largest timestamp.
func leafCounts(t *Tree) [2]int64 {
	l := t.Level(0).(*cmpbe.Sketch)
	return [2]int64{l.N(), l.MaxTime()}
}

func burstyStream(seed int64, k int, horizon int64) stream.Stream {
	// Background Poisson-ish noise on all events plus strong bursts on a
	// few chosen events in known windows.
	r := rand.New(rand.NewSource(seed))
	var s stream.Stream
	for tm := int64(0); tm < horizon; tm++ {
		if r.Intn(2) == 0 {
			s = append(s, stream.Element{Event: uint64(r.Intn(k)), Time: tm})
		}
		if tm >= horizon/2 && tm < horizon/2+50 {
			for j := 0; j < 8; j++ {
				s = append(s, stream.Element{Event: 3, Time: tm})
			}
			for j := 0; j < 5; j++ {
				s = append(s, stream.Element{Event: uint64(k - 1), Time: tm})
			}
		}
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, exactFactory); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(8, nil); err == nil {
		t.Error("nil factory accepted")
	}
	tr, err := New(100, exactFactory)
	if err != nil {
		t.Fatal(err)
	}
	if tr.K() != 128 {
		t.Fatalf("K = %d, want 128 (rounded)", tr.K())
	}
	tr2, _ := New(64, exactFactory)
	if tr2.K() != 64 {
		t.Fatalf("K = %d, want 64 (already a power of two)", tr2.K())
	}
}

func TestExactTreePerfectPrecision(t *testing.T) {
	// With exact levels every returned event is truly bursty (the leaf
	// filter is exact), i.e. the result is always a subset of the oracle's.
	// Equality is NOT guaranteed even with exact estimates: Algorithm 3's
	// pruning bound constrains only the immediate children's aggregate
	// burstiness, and deeper bursty leaves can hide behind siblings with
	// cancelling (negative) acceleration — the reason the paper's Figure 12
	// reports recall below 1. TestPruningCancellationMiss pins that
	// behaviour down explicitly.
	const k = 32
	data := burstyStream(1, k, 2000)
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
	r := rand.New(rand.NewSource(2))
	misses := 0
	total := 0
	for trial := 0; trial < 200; trial++ {
		ts := int64(r.Intn(2000))
		tau := int64(1 + r.Intn(100))
		theta := float64(1 + r.Intn(10))
		got, err := tr.BurstyEventIDs(ts, theta, pbe.MustSpan(tau), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.BurstyEvents(ts, int64(theta), tau)
		wantSet := make(map[uint64]bool, len(want))
		for _, e := range want {
			wantSet[e] = true
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for _, e := range got {
			if !wantSet[e] {
				t.Fatalf("ts=%d τ=%d θ=%v: false positive %d (got %v, want %v)",
					ts, tau, theta, e, got, want)
			}
		}
		misses += len(want) - len(got)
		total += len(want)
	}
	// Cancellation misses exist but must be the exception on this
	// noise-dominated workload with low thresholds.
	if total > 0 && float64(misses)/float64(total) > 0.25 {
		t.Fatalf("recall too low: missed %d of %d", misses, total)
	}
}

func TestPruningCancellationMiss(t *testing.T) {
	// Documents the inherent limitation of equation (6): two siblings with
	// equal-and-opposite acceleration make their parent (and the pruning
	// statistic at the grandparent) vanish, hiding both. Event 0
	// accelerates (+R per tick in the window) while event 1 decelerates
	// symmetrically; events 2 and 3 stay silent so every ancestor aggregate
	// has b ≈ 0.
	var data stream.Stream
	for tm := int64(0); tm < 300; tm++ {
		// Event 1 runs at a high steady rate, then stops at t=200 —
		// negative acceleration; event 0 starts at t=200 with the same
		// rate — positive acceleration of the same magnitude.
		if tm < 200 {
			for j := 0; j < 5; j++ {
				data = append(data, stream.Element{Event: 1, Time: tm})
			}
		} else {
			for j := 0; j < 5; j++ {
				data = append(data, stream.Element{Event: 0, Time: tm})
			}
		}
	}
	tr, err := New(4, exactFactory)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.New()
	for _, el := range data {
		tr.Append(el.Event, el.Time)
		oracle.Append(el.Event, el.Time)
	}
	tr.Finish()
	ts, tau := int64(249), int64(50)
	theta := 100.0
	// The oracle sees event 0 bursting.
	if b := oracle.Burstiness(0, ts, tau); float64(b) < theta {
		t.Fatalf("setup broken: oracle b_0 = %d", b)
	}
	var stats QueryStats
	got, err := tr.BurstyEvents(ts, theta, pbe.MustSpan(tau), &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected the cancellation miss documented by the paper's design, got %v", got)
	}
	if stats.Pruned == 0 {
		t.Fatal("expected the root to be pruned")
	}
}

func TestPruningActuallyPrunes(t *testing.T) {
	const k = 1024
	data := burstyStream(3, k, 4000)
	tr, _ := New(k, exactFactory)
	for _, el := range data {
		tr.Append(el.Event, el.Time)
	}
	tr.Finish()
	var stats QueryStats
	// Query inside the burst window with a threshold only the injected
	// bursts pass.
	if _, err := tr.BurstyEvents(2049, 100, pbe.MustSpan(50), &stats); err != nil {
		t.Fatal(err)
	}
	// A naive scan costs k point queries; the pruned search should do far
	// fewer (O(log k) scale).
	if stats.PointQueries > 200 {
		t.Fatalf("pruned search used %d point queries for k=%d", stats.PointQueries, k)
	}
	if stats.Pruned == 0 {
		t.Fatal("no subtree was pruned")
	}
}

// TestThetaValidation: a threshold that is not positive is refused before
// the walk starts. NaN is among them: no bound compares below it, so it
// would prune nothing and score every node of the tree.
func TestThetaValidation(t *testing.T) {
	tr, _ := New(8, exactFactory)
	for _, theta := range []float64{0, -3, math.NaN()} {
		var stats QueryStats
		if _, err := tr.BurstyEvents(10, theta, pbe.MustSpan(5), &stats); err == nil {
			t.Errorf("theta=%v accepted", theta)
		}
		if stats != (QueryStats{}) {
			t.Errorf("theta=%v: refused query did work: %+v", theta, stats)
		}
	}
}

func TestOutOfRangeIDFolded(t *testing.T) {
	tr, _ := New(8, exactFactory)
	tr.Append(1000, 5) // folds to 1000 % 8 = 0
	tr.Finish()
	if n := tr.Level(0).(*exactLevel).st.Len(); n != 1 {
		t.Fatalf("N = %d", n)
	}
	if b := tr.Level(0).Burstiness(0, 5, pbe.MustSpan(2)); b <= 0 {
		t.Fatalf("folded id invisible: b = %v", b)
	}
}

func TestSketchTreeFindsPlantedBursts(t *testing.T) {
	const k = 64
	data := burstyStream(7, k, 3000)
	f, steer := indexGammas(2)
	tr, err := New(k, CMPBELevels(4, 64, 11, f, steer))
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.New()
	for _, el := range data {
		tr.Append(el.Event, el.Time)
		oracle.Append(el.Event, el.Time)
	}
	tr.Finish()
	// Query at the end of the burst ramp: events 3 and 63 are bursting.
	ts := int64(1549)
	tau := int64(50)
	theta := 100.0
	got, err := tr.BurstyEventIDs(ts, theta, pbe.MustSpan(tau), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.BurstyEvents(ts, int64(theta), tau)
	// The sketch answer must contain every truly bursty event (recall) and
	// not blow up with false positives.
	gotSet := make(map[uint64]bool)
	for _, e := range got {
		gotSet[e] = true
	}
	for _, e := range want {
		if !gotSet[e] {
			t.Fatalf("missed bursty event %d; got %v, want %v", e, got, want)
		}
	}
	if len(got) > len(want)+5 {
		t.Fatalf("too many false positives: got %v, want %v", got, want)
	}
}

// TestLargeTreeSketchLevels runs the search over a sketch tree at K = 2^16,
// where the lower levels are Count-Min sketches under heavy collision:
// every planted burst is found, each spread across the id space so the walk
// descends several deep branches, and the walk scores a small fraction of
// the K leaves.
func TestLargeTreeSketchLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("large tree build")
	}
	const k = 1 << 16
	f, steer := indexGammas(4)
	tr, err := New(k, CMPBELevels(3, 128, 17, f, steer))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(19))
	burstIDs := []uint64{5, 1 << 10, 1<<15 + 7, k - 2}
	for tm := int64(0); tm < 2000; tm++ {
		tr.Append(uint64(r.Intn(k)), tm)
		if tm >= 1000 && tm < 1100 {
			for _, e := range burstIDs {
				for j := 0; j < 6; j++ {
					tr.Append(e, tm)
				}
			}
		}
	}
	tr.Finish()
	var stats QueryStats
	got, err := tr.BurstyEventIDs(1049, 150, pbe.MustSpan(50), &stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range burstIDs {
		if !slices.Contains(got, e) {
			t.Fatalf("missed planted burst %d; got %v", e, got)
		}
	}
	if stats.PointQueries > k/16 {
		t.Fatalf("the walk issued %d point queries over %d ids", stats.PointQueries, k)
	}
}

func TestBytesSumsLevels(t *testing.T) {
	tr, _ := New(16, exactFactory)
	tr.Append(3, 1)
	tr.Append(5, 2)
	tr.Finish()
	// 5 levels (lgK=4 → 0..4), each an exact store holding 2 timestamps.
	if got := tr.Bytes(); got != 5*2*8 {
		t.Fatalf("Bytes = %d, want 80", got)
	}
	if maxT := tr.Level(0).(*exactLevel).st.MaxTime(); maxT != 2 {
		t.Fatalf("MaxTime = %d", maxT)
	}
}

func TestRoundPow2(t *testing.T) {
	cases := map[uint64]uint64{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 864: 1024, 1689: 2048, 1 << 20: 1 << 20}
	for in, want := range cases {
		if got := roundPow2(in); got != want {
			t.Errorf("roundPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// indexGammas returns the error caps a PBE-2 index under gamma is built
// with: the leaf level's, and the steering levels' at SteerGammaFactor ×
// gamma.
func indexGammas(gamma float64) (leaf, steer float64) {
	return gamma, SteerGammaFactor * gamma
}
