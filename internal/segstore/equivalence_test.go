package segstore

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"histburst"
	"histburst/internal/stream"
)

// The cross-segment equivalence suite: a segmented store and a monolithic
// detector built from the same stream with the same sketch parameters must
// agree — bit-exactly where the combined path is deterministic (a single
// sealed segment is literally the same Append sequence), and within the
// additive γ guarantee when the history is split across m segments (each
// per-row curve carries its own ≤ γ error, so sums differ by ≤ m·γ per F
// term before the median).

// genStream produces a deterministic bursty stream: background arrivals over
// [0, horizon) plus dense bursts for a few hot events.
func genStream(n int, span uint64, horizon int64, seed int64) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	var elems stream.Stream
	for i := 0; i < n; i++ {
		elems = append(elems, stream.Element{
			Event: rng.Uint64() % span,
			Time:  rng.Int63n(horizon),
		})
	}
	// Hot events: bursts concentrated in short windows.
	for _, b := range []struct {
		e      uint64
		at, w  int64
		copies int
	}{
		{e: 1, at: horizon / 4, w: 20, copies: 40},
		{e: 2, at: horizon / 2, w: 10, copies: 60},
		{e: 3, at: 3 * horizon / 4, w: 30, copies: 50},
	} {
		for i := 0; i < b.copies; i++ {
			elems = append(elems, stream.Element{Event: b.e, Time: b.at + rng.Int63n(b.w)})
		}
	}
	elems.Sort()
	return elems
}

// buildPair ingests the same stream into a monolithic detector and a store.
func buildPair(t *testing.T, elems stream.Stream, cfg Config, sealAll bool) (*histburst.Detector, *Store) {
	t.Helper()
	opts := []histburst.Option{
		histburst.WithSeed(cfg.Seed), histburst.WithPBE2(cfg.Gamma),
		histburst.WithSketchDims(cfg.D, cfg.W),
	}
	det, err := histburst.New(cfg.K, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range elems {
		det.Append(el.Event, el.Time)
	}
	det.Finish()

	s := mustOpen(t, "", cfg)
	if _, rej, err := s.AppendBatch(elems); err != nil || rej > 0 {
		t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
	}
	if err := s.Checkpoint(sealAll); err != nil {
		t.Fatal(err)
	}
	return det, s
}

// exactCounts indexes the stream for ground-truth queries.
type exactCounts map[uint64]stream.TimestampSeq

func indexStream(elems stream.Stream) exactCounts {
	idx := make(exactCounts)
	for _, el := range elems {
		idx[el.Event] = append(idx[el.Event], el.Time)
	}
	return idx
}

func (idx exactCounts) burstiness(e uint64, t, tau int64) float64 {
	ts := idx[e]
	return float64(ts.CountAtOrBefore(t) - 2*ts.CountAtOrBefore(t-tau) + ts.CountAtOrBefore(t-2*tau))
}

// TestSingleSegmentMatchesMonolithicExactly: a store holding one sealed
// segment answers F, POINT, TIMES, EVENTS and TOP exactly as the detector
// built from the same stream, whatever the sketch layout: collision-free
// leaves, and Count-Min leaves with fewer rows than cmpbe's stack scratch
// holds (D = 5) and with more (D = 9).
func TestSingleSegmentMatchesMonolithicExactly(t *testing.T) {
	for _, tc := range []struct {
		name       string
		k          uint64
		d, w       int
		n          int
		span       uint64
		horizon    int64
		theta      float64
		eventsStep uint64
	}{
		{"collision-free-K64-D3-W32", 64, 3, 32, 400, 32, 1000, 4, 1},
		{"count-min-K512-D5-W8", 512, 5, 8, 4000, 512, 2000, 8, 16},
		{"count-min-K512-D9-W8", 512, 9, 8, 4000, 512, 2000, 8, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			elems := genStream(tc.n, tc.span, tc.horizon, 11)
			cfg := testConfig(-1) // seal only at checkpoint: one segment
			cfg.K, cfg.D, cfg.W = tc.k, tc.d, tc.w
			cfg.CompactFanout = -1
			det, s := buildPair(t, elems, cfg, true) // one whole-history segment
			defer mustClose(t, s)
			if got := len(s.Segments()); got != 1 {
				t.Fatalf("expected a single segment, got %d", got)
			}

			qs := []int64{-5, 0, 113, 250, 499, 500, 750, 999, 1200, 1500, 1999, 2400}
			for e := uint64(0); e < tc.span; e++ {
				for _, q := range qs {
					if got, want := s.Snapshot().CumulativeFrequency(e, q), det.CumulativeFrequency(e, q); got != want {
						t.Fatalf("F(%d,%d): store %v, detector %v", e, q, got, want)
					}
					for _, tau := range []int64{7, 50} {
						got, err := s.Snapshot().Burstiness(e, q, tau)
						if err != nil {
							t.Fatal(err)
						}
						want, err := det.Burstiness(e, q, tau)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("b(%d,%d,%d): store %v, detector %v", e, q, tau, got, want)
						}
					}
				}
			}

			const tau = 50
			hits := 0
			for e := uint64(0); e < tc.span; e += tc.eventsStep {
				got, err := s.Snapshot().BurstyTimes(e, tc.theta, tau)
				if err != nil {
					t.Fatal(err)
				}
				want, err := det.BurstyTimes(e, tc.theta, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TIMES(e=%d): store %v, detector %v", e, got, want)
				}
				hits += len(want)
			}
			for q := int64(0); q < tc.horizon; q += tc.horizon / 20 {
				got, err := s.Snapshot().BurstyEvents(q, tc.theta, tau)
				if err != nil {
					t.Fatal(err)
				}
				want, err := det.BurstyEvents(q, tc.theta, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("EVENTS(t=%d): store %v, detector %v", q, got, want)
				}
				hits += len(want)
				top, err := s.Snapshot().TopBursty(q, 5, tau)
				if err != nil {
					t.Fatal(err)
				}
				wantTop, err := det.TopBursty(q, 5, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(top, wantTop) {
					t.Fatalf("TOP(t=%d): store %v, detector %v", q, top, wantTop)
				}
			}
			if hits == 0 {
				t.Fatal("no TIMES range and no EVENTS hit: the comparison saw only empty answers")
			}
		})
	}
}

func TestMultiSegmentWithinGammaEnvelope(t *testing.T) {
	elems := genStream(600, 32, 1200, 23)
	cfg := testConfig(64) // many segments
	cfg.CompactFanout = -1
	det, s := buildPair(t, elems, cfg, false)
	defer mustClose(t, s)
	m := len(s.Segments())
	if m < 4 {
		t.Fatalf("want a multi-segment store, got %d segments", m)
	}
	idx := indexStream(elems)

	// Each of the three F terms of eq. (2) may deviate from the exact count
	// by γ per component whose span the instant falls inside; the summed
	// error is bounded by γ·(m+1) per term (m segments + live head).
	envF := cfg.Gamma * float64(m+1)
	envB := 4 * envF // |1| + |−2| + |1| weights on the three F terms
	for e := uint64(0); e < 32; e++ {
		for _, q := range []int64{100, 300, 500, 700, 900, 1100, 1250} {
			exactF := float64(idx[e].CountAtOrBefore(q))
			if got := s.Snapshot().CumulativeFrequency(e, q); math.Abs(got-exactF) > envF {
				t.Fatalf("F(%d,%d) = %v, exact %v: outside γ·(m+1) = %v", e, q, got, exactF, envF)
			}
			got, err := s.Snapshot().Burstiness(e, q, 40)
			if err != nil {
				t.Fatal(err)
			}
			if exactB := idx.burstiness(e, q, 40); math.Abs(got-exactB) > envB {
				t.Fatalf("b(%d,%d,40) = %v, exact %v: outside envelope %v", e, q, got, exactB, envB)
			}
		}
	}

	// Past the frontier every per-segment estimate is an exact count, so the
	// combined estimate collapses to the monolithic one exactly.
	horizon := s.MaxTime()
	for e := uint64(0); e < 32; e++ {
		if got, want := s.Snapshot().CumulativeFrequency(e, horizon), det.CumulativeFrequency(e, horizon); got != want {
			t.Fatalf("F(%d,frontier): store %v, detector %v", e, got, want)
		}
	}
}

func TestBurstyEventsCrossSegment(t *testing.T) {
	elems := genStream(500, 32, 1200, 31)
	cfg := testConfig(64)
	cfg.CompactFanout = -1
	_, s := buildPair(t, elems, cfg, false)
	defer mustClose(t, s)
	if len(s.Segments()) < 3 {
		t.Fatalf("want a multi-segment store, got %d segments", len(s.Segments()))
	}
	idx := indexStream(elems)
	m := float64(len(s.Segments()) + 1)
	margin := 4 * cfg.Gamma * m // same envelope as the point query

	for _, q := range []struct {
		t, tau int64
		theta  float64
	}{
		{t: 320, tau: 20, theta: 25},
		{t: 610, tau: 10, theta: 30},
		{t: 930, tau: 30, theta: 25},
	} {
		got, err := s.Snapshot().BurstyEvents(q.t, q.theta, q.tau)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("BurstyEvents(%d) not ascending: %v", q.t, got)
		}
		reported := make(map[uint64]bool)
		for _, e := range got {
			reported[e] = true
			// No false positives beyond the envelope.
			if exact := idx.burstiness(e, q.t, q.tau); exact < q.theta-margin {
				t.Fatalf("event %d reported at t=%d with exact burstiness %v << θ=%v", e, q.t, exact, q.theta)
			}
		}
		// No misses with an envelope of headroom.
		for e := uint64(0); e < 32; e++ {
			if exact := idx.burstiness(e, q.t, q.tau); exact >= q.theta+margin && !reported[e] {
				t.Fatalf("event %d missed at t=%d despite exact burstiness %v >> θ=%v", e, q.t, exact, q.theta)
			}
		}
	}
}

// TestTopBurstyCrossSegment: on a frozen many-segment layout the store's
// ranking is the one a detector merged from its segments gives — scored
// across seals, not per segment — and the hard burst leads it.
func TestTopBurstyCrossSegment(t *testing.T) {
	elems := denseStream(1200, 32, 47)
	cfg := testConfig(8000)
	cfg.CompactFanout = -1
	s := frozenStore(t, elems, cfg)
	defer mustClose(t, s)
	idx := indexStream(elems)

	top, err := s.Snapshot().TopBursty(610, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	m := newMergedLayout(t, s)
	if m.inGap(610) || m.inGap(600) || m.inGap(590) {
		t.Fatal("fixture: an instant of the query falls in an inter-segment gap")
	}
	m.check(t, 610, 10, nil, []int{len(top)})
	// Event 2 bursts hard at t≈600 (60 copies in a 10-wide window); it must
	// lead the ranking.
	if top[0].Event != 2 {
		t.Fatalf("top event = %d (score %v), want 2 (exact %v)",
			top[0].Event, top[0].Burstiness, idx.burstiness(2, 610, 10))
	}
}

func TestBurstyTimesCrossSegment(t *testing.T) {
	elems := genStream(500, 32, 1200, 59)
	cfg := testConfig(64)
	cfg.CompactFanout = -1
	det, s := buildPair(t, elems, cfg, false)
	defer mustClose(t, s)
	idx := indexStream(elems)

	// Event 2's burst packs 60+ arrivals into [600, 610): the exact
	// burstiness crosses a high θ there and nowhere else.
	const tau, theta = 10, 30
	ranges, err := s.Snapshot().BurstyTimes(2, theta, tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) == 0 {
		t.Fatal("no bursty ranges found for the hot event")
	}
	covers := func(ranges []histburst.TimeRange, t int64) bool {
		for _, r := range ranges {
			if r.Start <= t && t <= r.End {
				return true
			}
		}
		return false
	}
	// Find the instant of exact peak burstiness; the store must flag it.
	peakT, peakB := int64(0), math.Inf(-1)
	for q := int64(595); q <= 625; q++ {
		if b := idx.burstiness(2, q, tau); b > peakB {
			peakT, peakB = q, b
		}
	}
	if peakB < theta {
		t.Fatalf("test stream lost its burst: peak %v at %d", peakB, peakT)
	}
	if !covers(ranges, peakT) {
		t.Fatalf("ranges %v do not cover the exact peak at t=%d (b=%v)", ranges, peakT, peakB)
	}
	// Ranges must stay inside the detector horizon and be disjoint ascending.
	for i, r := range ranges {
		if r.Start > r.End || r.End > s.MaxTime() {
			t.Fatalf("range %d malformed: %+v (horizon %d)", i, r, s.MaxTime())
		}
		if i > 0 && r.Start <= ranges[i-1].End {
			t.Fatalf("ranges overlap: %+v", ranges)
		}
	}
	// Sanity: the monolithic detector also flags the same peak.
	mono, err := det.BurstyTimes(2, theta, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !covers(mono, peakT) {
		t.Fatalf("monolithic detector misses the peak at %d: %v", peakT, mono)
	}
}

func TestCompactedStoreStillWithinEnvelope(t *testing.T) {
	elems := genStream(600, 32, 1200, 61)
	cfg := testConfig(32)
	cfg.CompactFanout = 2
	s := openStepped(t, "", cfg)
	defer mustClose(t, s)
	if _, rej, err := s.AppendBatch(elems); err != nil || rej > 0 {
		t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
	}
	if err := s.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	// Let compaction finish all available work.
	settle(t, s)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	idx := indexStream(elems)
	m := float64(len(s.Segments()) + 1)
	for e := uint64(0); e < 32; e++ {
		for _, q := range []int64{200, 600, 1000} {
			exact := float64(idx[e].CountAtOrBefore(q))
			if got := s.Snapshot().CumulativeFrequency(e, q); math.Abs(got-exact) > cfg.Gamma*m {
				t.Fatalf("post-compaction F(%d,%d) = %v, exact %v (envelope %v)", e, q, got, exact, cfg.Gamma*m)
			}
		}
	}
}
