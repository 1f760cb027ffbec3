package segstore

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

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
	if got := a.CumulativeFrequency(3, q); got != 5 {
		t.Fatalf("store A: F̃(3, %d) = %v, want 5", q, got)
	}
	if got := b.CumulativeFrequency(3, q); got != 15 {
		t.Fatalf("store B, asked after A: F̃(3, %d) = %v, want 15", q, got)
	}
	asn, bsn := a.Snapshot(), b.Snapshot()
	for _, tau := range []int64{10, 30000, 90000} {
		asn.burstiness(3, q, tau)
		if fast, naive := bsn.burstiness(3, q, tau), bsn.burstinessNaive(3, q, tau); fast != naive {
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
	s := mustOpen(t, "", cfg)
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
	settleGenerations(t, s)
	return s
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
						skipped += len(sn.segsThrough(q)) - len(sn.segsInWindow(q, tau))
						for e := uint64(0); e < 8; e++ {
							fast, naive := sn.burstiness(e, q, tau), sn.burstinessNaive(e, q, tau)
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
				if got := sn.segsInWindow(q, tau); !reflect.DeepEqual(append([]*Segment(nil), got...), want) {
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

// TestSegstorePointZeroAllocs: the cross-segment POINT path performs no
// per-query allocation, window search included — over sealed segments, and
// over a head whose exact counts read packed chunks at all three instants.
func TestSegstorePointZeroAllocs(t *testing.T) {
	sealed := windowLayout(t, "sealed")
	defer mustClose(t, sealed)
	packed := packedHeadStore(t)
	defer mustClose(t, packed)
	_, hmin, hmax, _ := packed.view.Load().head.snapshot()
	for _, tc := range []struct {
		name string
		s    *Store
		t    int64
		taus []int64
	}{
		{"sealed", sealed, (sealed.Snapshot().MinTime() + sealed.Snapshot().MaxTime()) / 2, []int64{600, 86_400}},
		{"packed head", packed, hmax - (hmax-hmin)/8, []int64{600, (hmax - hmin) / 3}},
	} {
		sn := tc.s.Snapshot()
		for _, tau := range tc.taus {
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := sn.Burstiness(3, tc.t, tau); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s: Snapshot.Burstiness(τ=%d) allocates %.1f times per op, want 0", tc.name, tau, allocs)
			}
		}
	}
}

// mergeSortedNaive is the retained twin of mergeSorted: every emitted value
// rescans every list, twice.
func mergeSortedNaive(lists [][]int64) []int64 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]int64, 0, total)
	idx := make([]int, len(lists))
	for {
		var best int64
		found := false
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if v := l[idx[i]]; !found || v < best {
				best, found = v, true
			}
		}
		if !found {
			return out
		}
		if len(out) == 0 || out[len(out)-1] != best {
			out = append(out, best)
		}
		for i, l := range lists {
			for idx[i] < len(l) && l[idx[i]] == best {
				idx[i]++
			}
		}
	}
}

// breakpointsNaive is crossView.Breakpoints as it was: a fresh EventCells
// slice and a one-element boundary list per segment, merged naively.
func (v *crossView) breakpointsNaive() []int64 {
	var lists [][]int64
	for _, g := range v.sn.v.segs {
		for _, c := range g.detector().EventCells(v.e) {
			lists = append(lists, c.Breakpoints())
		}
		lists = append(lists, []int64{g.meta.MaxT})
	}
	for _, h := range v.sn.heads() {
		if ts := h.arrivals(v.e); len(ts) > 0 {
			lists = append(lists, ts)
		}
	}
	return mergeSortedNaive(lists)
}

func TestMergeSortedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var bufs [2][]int64 // reused across cases, as the pooled scratch is
	for trial := 0; trial < 400; trial++ {
		lists := make([][]int64, rng.Intn(12))
		for i := range lists {
			v := rng.Int63n(50) - 25
			for j := rng.Intn(9); j > 0; j-- {
				lists[i] = append(lists[i], v)
				v += rng.Int63n(4) // zero steps: duplicates inside a list
			}
		}
		want := mergeSortedNaive(lists)
		got := mergeSorted(append([][]int64(nil), lists...), &bufs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: lists %v merge to %v, want %v", trial, lists, got, want)
		}
	}
}

func TestBreakpointsMatchNaive(t *testing.T) {
	for _, name := range windowLayoutNames {
		s := windowLayout(t, name)
		sn := s.Snapshot()
		for e := uint64(0); e < 8; e++ {
			v := &crossView{sn: sn, e: e}
			for rep := 0; rep < 2; rep++ { // the second call reuses pooled scratch
				got, want := v.Breakpoints(), v.breakpointsNaive()
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
