package segstore

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// TestTwoStoresSameGeneration: two stores in one process whose generation
// counters are equal but whose segment boundaries differ must not see each
// other's segment index. (The suffix cut once memoised its binary search by
// (generation, t) in the process-global scratch pool, so store B was served
// store A's prefix length: F̃(3, 100000) = 5 instead of 15.)
func TestTwoStoresSameGeneration(t *testing.T) {
	build := func(minTs []int64) *Store {
		cfg := testConfig(-1)
		cfg.CompactFanout = -1
		s := mustOpen(t, "", cfg)
		for _, m := range minTs {
			for i := int64(0); i < 5; i++ {
				if err := s.Append(3, m+i); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Checkpoint(true); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	a := build([]int64{1000, 200000, 400000, 600000})
	defer mustClose(t, a)
	b := build([]int64{1000, 20000, 40000, 600000})
	defer mustClose(t, b)
	if a.Generation() != b.Generation() {
		t.Fatalf("fixture: generations %d and %d differ", a.Generation(), b.Generation())
	}
	const q = 100000
	if got := a.Snapshot().CumulativeFrequency(3, q); got != 5 {
		t.Fatalf("store A: F̃(3, %d) = %v, want 5", q, got)
	}
	if got := b.Snapshot().CumulativeFrequency(3, q); got != 15 {
		t.Fatalf("store B, asked after A: F̃(3, %d) = %v, want 15", q, got)
	}
	asn, bsn := a.Snapshot(), b.Snapshot()
	for _, tau := range []int64{10, 30000, 90000} {
		asn.burstiness(3, q, pbe.MustSpan(tau))
		if fast, naive := bsn.burstiness(3, q, pbe.MustSpan(tau)), bsn.burstinessNaive(3, q, pbe.MustSpan(tau)); fast != naive {
			t.Fatalf("store B, asked after A: b(3, %d, τ=%d) = %v, want %v", q, tau, fast, naive)
		}
	}
}

// windowLayoutNames are the three shapes a store's history takes.
var windowLayoutNames = []string{"sealed", "compacted", "decayed"}

// windowLayout builds one of them from an epoch-scale origin, with a live
// head behind the sealed segments.
func windowLayout(t *testing.T, name string) *Store {
	t.Helper()
	const origin = int64(1_700_000_000)
	cfg, n, dt := testConfig(64), 1200, int64(300)
	switch name {
	case "sealed":
		cfg.CompactFanout = -1
	case "compacted":
		cfg.CompactFanout, n = 4, 1900
	case "decayed":
		// ~21 days at ten-minute steps: most of the history decays to the
		// hourly then half-day grid, runs of up to eight segments folded
		// into one, each part frontier an exact count on a downsampled cell.
		cfg, n, dt = decayConfig(64), 3000, 600
	}
	s := openStepped(t, "", cfg)
	rng := rand.New(rand.NewSource(5))
	batch := make(stream.Stream, 0, n)
	tm := origin
	for i := 0; i < n; i++ {
		batch = append(batch, stream.Element{Event: rng.Uint64() % 8, Time: tm})
		if rng.Intn(4) > 0 { // runs of equal timestamps straddle seals
			tm += 1 + rng.Int63n(2*dt)
		}
	}
	if _, rej, err := s.AppendBatch(batch); err != nil || rej > 0 {
		t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
	}
	if err := s.Checkpoint(false); err != nil { // the frontier timestamp stays in the head
		t.Fatal(err)
	}
	settle(t, s)
	return s
}

// TestHeadStatsSpanEveryHead: Head reports the span of every unsealed
// element, frozen heads and the live one alike. A frozen head holding only
// t = 0 beside a live head holding 5 and 9 starts the span at 0; a zero MinT
// once read as "no head yet", which reported 5.
func TestHeadStatsSpanEveryHead(t *testing.T) {
	s := openStepped(t, "", testConfig(0))
	defer mustClose(t, s)
	for i, batch := range []stream.Stream{{{Event: 1, Time: 0}}, {{Event: 1, Time: 5}, {Event: 2, Time: 9}}} {
		if _, rej, err := s.AppendBatch(batch); err != nil || rej > 0 {
			t.Fatalf("AppendBatch(%v): %d rejected, %v", batch, rej, err)
		}
		if i == 0 {
			if err := s.freezeHead(s.view.Load(), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := HeadStats{Elements: 3, MinT: 0, MaxT: 9, Frozen: 1}
	if got := s.Snapshot().Head(); got != want {
		t.Errorf("Head() = %+v, want %+v", got, want)
	}
}

// TestWindowSkipMatchesNaive pins the two-ended segment skip of the point
// query bit-identical to burstinessNaive, which keeps visiting everything:
// t on, one before and one after every segment boundary — and t−τ and t−2τ
// on them — with τ from 1 to longer than any segment's span.
func TestWindowSkipMatchesNaive(t *testing.T) {
	for _, name := range windowLayoutNames {
		s := windowLayout(t, name)
		sn := s.Snapshot()
		segs := sn.v.segs
		if len(segs) < 3 {
			t.Fatalf("%s: fixture has %d segments, want at least 3", name, len(segs))
		}
		if hs := sn.Head(); hs.Elements == 0 {
			t.Fatalf("%s: fixture has an empty head", name)
		}
		var bounds []int64
		maxSpan, tiers := int64(0), map[int]bool{}
		for _, g := range segs {
			bounds = append(bounds, g.meta.MinT, g.meta.MaxT)
			maxSpan = max(maxSpan, g.meta.MaxT-g.meta.MinT)
			tiers[g.meta.Tier] = true
		}
		if name == "decayed" && !(tiers[0] && tiers[1] && tiers[2]) {
			t.Fatalf("decayed: fixture reached tiers %v, want 0, 1 and 2", tiers)
		}
		bounds = append(bounds, sn.MaxTime())
		checked, skipped := 0, 0
		for _, tau := range []int64{1, 7, 600, 3600, 86_400, maxSpan + 1, 3 * maxSpan} {
			for _, b := range bounds {
				for _, shift := range []int64{0, tau, 2 * tau} {
					for d := int64(-1); d <= 1; d++ {
						q := b + shift + d
						skipped += len(sn.segsThrough(q)) - len(sn.segsInWindow(q, pbe.MustSpan(tau)))
						for e := uint64(0); e < 8; e++ {
							fast, naive := sn.burstiness(e, q, pbe.MustSpan(tau)), sn.burstinessNaive(e, q, pbe.MustSpan(tau))
							if math.Float64bits(fast) != math.Float64bits(naive) {
								t.Fatalf("%s: b(%d, %d, τ=%d): %v (%#x) skipping, %v (%#x) visiting every segment",
									name, e, q, tau, fast, math.Float64bits(fast), naive, math.Float64bits(naive))
							}
							checked++
						}
					}
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("%s: no query skipped a segment behind its window", name)
		}
		t.Logf("%s: %d segments, %d point queries bit-identical, %d visits behind the window skipped", name, len(segs), checked, skipped)
		mustClose(t, s)
	}
}

// TestWindowTouchesOnlyOverlap pins the segment range itself against the
// definition: exactly the segments overlapping (t−2τ, t], and every one the
// range leaves out is wholly before or wholly after the window.
func TestWindowTouchesOnlyOverlap(t *testing.T) {
	s := windowLayout(t, "sealed")
	defer mustClose(t, s)
	sn := s.Snapshot()
	segs := sn.v.segs
	for _, tau := range []int64{1, 600, 86_400, math.MaxInt64 / 2, math.MaxInt64} {
		for _, g := range segs {
			for _, q := range []int64{g.meta.MinT - 1, g.meta.MinT, g.meta.MaxT, g.meta.MaxT + 2*tau, g.meta.MaxT + 2*tau + 1} {
				var want []*Segment
				for _, h := range segs {
					from := q - 2*tau
					if from >= q { // overflow: nothing is provably behind the window
						from = math.MinInt64
					}
					if h.meta.MinT <= q && h.meta.MaxT > from {
						want = append(want, h)
					}
				}
				if got := sn.segsInWindow(q, pbe.MustSpan(tau)); !reflect.DeepEqual(append([]*Segment(nil), got...), want) {
					t.Fatalf("segsInWindow(%d, τ=%d) = %d segments, want %d", q, tau, len(got), len(want))
				}
			}
		}
	}
}

// packedHeadStore builds sealed segments from an epoch-scale origin, then a
// live head in which event 3 fills at least four packed chunks.
func packedHeadStore(t *testing.T) *Store {
	t.Helper()
	cfg := testConfig(1024)
	cfg.CompactFanout = -1
	s := mustOpen(t, "", cfg)
	rng := rand.New(rand.NewSource(8))
	tm := int64(1_700_000_000)
	batch := make(stream.Stream, 1600)
	for i := range batch {
		e := rng.Uint64() % 8
		if i%2 == 0 {
			e = 3
		}
		tm += rng.Int63n(600)
		batch[i] = stream.Element{Event: e, Time: tm}
	}
	if _, rej, err := s.AppendBatch(batch[:1000]); err != nil || rej > 0 {
		t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
	}
	if err := s.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	if _, rej, err := s.AppendBatch(batch[1000:]); err != nil || rej > 0 {
		t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
	}
	h := s.view.Load().head
	h.mu.RLock()
	defer h.mu.RUnlock()
	if c := len(h.byEvent[3].chunks); c < 4 {
		t.Fatalf("fixture head holds %d packed chunks of event 3, want at least 4", c)
	}
	return s
}

// openWidthsStore builds a live head in which event w, for w = 0…8, holds
// one open chunk of 20 timestamps whose gaps are all w bytes wide; it
// returns the store and each event's first timestamp and gap.
func openWidthsStore(t *testing.T) (s *Store, first, gap [9]int64) {
	t.Helper()
	s = mustOpen(t, "", testConfig(-1))
	var batch stream.Stream
	tm := int64(0)
	for w := range 9 {
		if w > 0 {
			gap[w] = 3 << (8 * (w - 1)) // w bytes wide
		}
		first[w] = tm
		for i := range 20 {
			batch = append(batch, stream.Element{Event: uint64(w), Time: tm})
			if i < 19 {
				tm += gap[w]
			}
		}
	}
	if _, rej, err := s.AppendBatch(batch); err != nil || rej > 0 {
		t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
	}
	h := s.view.Load().head
	h.mu.RLock()
	defer h.mu.RUnlock()
	for w := range 9 {
		if q := h.byEvent[uint64(w)]; len(q.chunks) != 0 || q.openLen() != 20 || int(q.w) != w {
			t.Fatalf("event %d: %d packed chunks and %d open timestamps at width %d, want 0, 20 and %d", w, len(q.chunks), q.openLen(), q.w, w)
		}
	}
	return s, first, gap
}

// TestSegstorePointZeroAllocs: the cross-segment POINT path performs no
// per-query allocation, window search included — over sealed segments,
// over a head whose exact counts read packed chunks at all three instants,
// and over open chunks at every gap width.
func TestSegstorePointZeroAllocs(t *testing.T) {
	sealed := windowLayout(t, "sealed")
	defer mustClose(t, sealed)
	packed := packedHeadStore(t)
	defer mustClose(t, packed)
	_, hmin, hmax, _ := packed.view.Load().head.snapshot()
	type query struct {
		e    uint64
		t    int64
		taus []int64
	}
	cases := []struct {
		name string
		s    *Store
		qs   []query
	}{
		{"sealed", sealed, []query{{3, (sealed.Snapshot().MinTime() + sealed.Snapshot().MaxTime()) / 2, []int64{600, 86_400}}}},
		{"packed head", packed, []query{{3, hmax - (hmax-hmin)/8, []int64{600, (hmax - hmin) / 3}}}},
	}
	open, first, gap := openWidthsStore(t)
	defer mustClose(t, open)
	var qs []query
	for w := range 9 {
		// τ spans three gaps, so t−2τ, t−τ and t fall inside the chunk.
		tau := max(3*gap[w], 1)
		qs = append(qs, query{uint64(w), first[w] + 13*gap[w] + gap[w]/2, []int64{tau}})
	}
	cases = append(cases, struct {
		name string
		s    *Store
		qs   []query
	}{"open chunks at widths 0–8", open, qs})
	for _, tc := range cases {
		sn := tc.s.Snapshot()
		for _, q := range tc.qs {
			for _, tau := range q.taus {
				allocs := testing.AllocsPerRun(200, func() {
					if _, err := sn.Burstiness(q.e, q.t, tau); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("%s: Snapshot.Burstiness(e=%d, τ=%d) allocates %.1f times per op, want 0", tc.name, q.e, tau, allocs)
				}
			}
		}
	}
}

// breakpointsNaive is Snapshot.breakpoints as a set: a fresh leaf-level
// EventCells slice per segment, every breakpoint, boundary and head arrival
// put in a map, then sorted.
func (sn *Snapshot) breakpointsNaive(e uint64) []int64 {
	set := map[int64]bool{}
	for _, g := range sn.v.segs {
		for _, c := range g.sketch(0).EventCells(e) {
			for _, bp := range c.Breakpoints() {
				set[bp] = true
			}
		}
		set[g.meta.MaxT] = true
	}
	for _, h := range sn.heads() {
		for _, ts := range h.arrivals(e) {
			set[ts] = true
		}
	}
	out := make([]int64, 0, len(set))
	for bp := range set {
		out = append(out, bp)
	}
	slices.Sort(out)
	return out
}

func TestBreakpointsMatchNaive(t *testing.T) {
	for _, name := range windowLayoutNames {
		s := windowLayout(t, name)
		sn := s.Snapshot()
		for e := uint64(0); e < 8; e++ {
			for rep := 0; rep < 2; rep++ { // the second call reuses pooled scratch
				got, want := sn.breakpoints(e), sn.breakpointsNaive(e)
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: event %d: %d breakpoints, naive twin %d; first difference at %d",
						name, e, len(got), len(want), firstDiff(got, want))
				}
			}
		}
		mustClose(t, s)
	}
}

func firstDiff(a, b []int64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestBurstyTimesAgreesWithPoint pins the store's BURSTY TIME to its POINT
// over several segments with Count-Min leaves (K > d·w) and an unsealed
// tail: at every instant the query evaluates, and at each range's first and
// last instant, t lies in a reported range exactly when the point query at
// t reaches θ.
func TestBurstyTimesAgreesWithPoint(t *testing.T) {
	const tau, theta = 20, 12
	s := mustOpen(t, "", Config{K: 512, Gamma: 2, Seed: 7, D: 5, W: 32, SealEvents: 6000, CompactFanout: -1})
	defer mustClose(t, s)
	if _, _, err := s.AppendBatch(genStream(40_000, 512, 10_000, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if n := len(sn.Segments()); n < 4 {
		t.Fatalf("store sealed %d segments, want several", n)
	}
	found := 0
	for e := uint64(0); e < 24; e++ {
		ranges, err := sn.BurstyTimes(e, theta, tau)
		if err != nil {
			t.Fatal(err)
		}
		found += len(ranges)
		probes := pbe.ShiftedBreakpoints(sn.breakpoints(e), pbe.MustSpan(tau), sn.MaxTime())
		for _, r := range ranges {
			probes = append(probes, r.Start, r.End-1)
		}
		for _, q := range probes {
			i := sort.Search(len(ranges), func(i int) bool { return ranges[i].End > q })
			in := i < len(ranges) && ranges[i].Contains(q)
			if b := sn.burstiness(e, q, pbe.MustSpan(tau)); in != (b >= theta) {
				t.Fatalf("event %d: t=%d in a range is %v, but POINT = %v against θ = %v", e, q, in, b, float64(theta))
			}
		}
	}
	if found == 0 {
		t.Fatal("no event was ever bursty; the check saw only negatives")
	}
}
