package cmpbe

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// The query-path overhaul must be invisible in results: every fast path is
// checked here for exact (bit-level) equality against the straightforward
// implementation it replaced, and the zero-allocation claims are pinned by
// testing.AllocsPerRun.

func fastpathSketch(t *testing.T, gamma float64, finish bool) *Sketch {
	t.Helper()
	s, err := New(5, 64, 3, gamma)
	if err != nil {
		t.Fatal(err)
	}
	return fastpathFill(s, finish)
}

// fastpathWide is fastpathSketch with more rows than maxStackD, whose
// queries take heap scratch.
func fastpathWide(t *testing.T, gamma float64, finish bool) *Sketch {
	t.Helper()
	s, err := New(maxStackD+1, 64, 3, gamma)
	if err != nil {
		t.Fatal(err)
	}
	return fastpathFill(s, finish)
}

// fastpathDirect is fastpathSketch's stream in a collision-free level, whose
// point query skips the median of rows.
func fastpathDirect(t *testing.T, gamma float64, finish bool) *Sketch {
	t.Helper()
	s, err := NewDirect(512, gamma)
	if err != nil {
		t.Fatal(err)
	}
	return fastpathFill(s, finish)
}

func fastpathFill(s *Sketch, finish bool) *Sketch {
	for _, el := range mixedStream(5, 30_000, 512) {
		s.Append(el.Event, el.Time)
	}
	if finish {
		s.Finish()
	}
	return s
}

// burstinessNaive is the pre-overhaul point query (allocate, three
// independent evaluations per row, sort-based median), kept as the reference
// for equivalence tests and the recorded speedup benchmark.
func (s *Sketch) burstinessNaive(e uint64, t int64, sp pbe.Span) float64 {
	t0, t1, _ := sp.Instants(t)
	vals := make([]float64, s.d)
	for i := range vals {
		c := s.cell(i, e)
		vals[i] = c.Estimate(t) - 2*c.Estimate(t1) + c.Estimate(t0)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func TestBurstinessMatchesNaive(t *testing.T) {
	for _, finish := range []bool{false, true} {
		for _, s := range []*Sketch{fastpathSketch(t, 4, finish), fastpathWide(t, 4, finish), fastpathDirect(t, 4, finish)} {
			r := rand.New(rand.NewSource(9))
			horizon := s.MaxTime()
			for trial := 0; trial < 4000; trial++ {
				e := uint64(r.Intn(512))
				// Instants off both ends of the stream included: the head and
				// before-first-segment paths must agree too, and τ ≤ 0,
				// which leaves the zero Span.
				ts := int64(r.Intn(int(horizon)+200)) - 100
				tau := int64(r.Intn(2000)) - 20
				sp, _ := pbe.NewSpan(tau)
				got := s.Burstiness(e, ts, sp)
				want := s.burstinessNaive(e, ts, sp)
				if got != want {
					t.Fatalf("%d×%d finish=%v: Burstiness(%d, %d, %d) = %v, naive = %v",
						s.d, s.w, finish, e, ts, tau, got, want)
				}
			}
		}
	}
}

func TestEstimateFMatchesPerCellMedian(t *testing.T) {
	for _, s := range []*Sketch{fastpathSketch(t, 4, true), fastpathWide(t, 4, true), fastpathDirect(t, 4, true)} {
		r := rand.New(rand.NewSource(10))
		for trial := 0; trial < 2000; trial++ {
			e := uint64(r.Intn(512))
			ts := int64(r.Intn(int(s.MaxTime()) + 1))
			got := s.EstimateF(e, ts)
			vals := make([]float64, s.d)
			for i := 0; i < s.d; i++ {
				vals[i] = s.cell(i, e).Estimate(ts)
			}
			sort.Float64s(vals)
			want := vals[len(vals)/2]
			if got != want {
				t.Fatalf("%d×%d: EstimateF(%d, %d) = %v, reference median = %v", s.d, s.w, e, ts, got, want)
			}
		}
	}
}

func TestMedian5MatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		var vs [5]float64
		for i := range vs {
			// Small integer range provokes plenty of duplicates.
			vs[i] = float64(r.Intn(8) - 4)
		}
		got := median5(vs[0], vs[1], vs[2], vs[3], vs[4])
		sorted := vs
		sort.Float64s(sorted[:])
		if got != sorted[2] {
			t.Fatalf("median5(%v) = %v, want %v", vs, got, sorted[2])
		}
	}
}

func TestViewBreakpointsMatchesReference(t *testing.T) {
	s := fastpathSketch(t, 4, true)
	for e := uint64(0); e < 64; e++ {
		got := s.breakpoints(e)
		// Reference: union via map, then sort.
		set := map[int64]bool{}
		for _, c := range s.EventCells(e) {
			for _, bp := range c.Breakpoints() {
				set[bp] = true
			}
		}
		want := make([]int64, 0, len(set))
		for bp := range set {
			want = append(want, bp)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("event %d: %d breakpoints, want %d", e, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d: breakpoint %d = %d, want %d", e, i, got[i], want[i])
			}
		}
	}
}

func TestBytesMemoInvalidation(t *testing.T) {
	s, err := New(3, 16, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	baseline := s.Bytes()
	if again := s.Bytes(); again != baseline {
		t.Fatalf("memoized Bytes changed with no mutation: %d then %d", baseline, again)
	}
	// Bursty arrivals (rate flips every 40 ticks) force segment commits, so
	// the footprint must grow once flushed; a stale memo would keep reporting
	// the pre-append value.
	ingest := func(from, ticks int64) {
		for tm := from; tm < from+ticks; tm++ {
			reps := 1
			if tm/40%2 == 0 {
				reps = 9
			}
			for j := 0; j < reps; j++ {
				s.Append(uint64(tm)%7, tm)
			}
		}
	}
	ingest(0, 400)
	s.Finish()
	finished := s.Bytes()
	if finished <= baseline {
		t.Fatalf("Bytes did not grow after appends+finish: %d -> %d", baseline, finished)
	}
	if again := s.Bytes(); again != finished {
		t.Fatalf("memoized Bytes changed with no mutation: %d then %d", finished, again)
	}
	ingest(400, 400)
	s.Finish()
	refilled := s.Bytes()
	if refilled <= finished {
		t.Fatalf("Bytes memo went stale across append+finish: %d -> %d", finished, refilled)
	}
	finished = refilled
	o, err := New(3, 16, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for tm := int64(2000); tm < 2400; tm++ {
		reps := 1
		if tm/40%2 == 0 {
			reps = 9
		}
		for j := 0; j < reps; j++ {
			o.Append(uint64(tm)%5, tm)
		}
	}
	o.Finish()
	m, err := MergeSketches([]*Sketch{s, o})
	if err != nil {
		t.Fatal(err)
	}
	if merged := m.Bytes(); merged <= finished {
		t.Fatalf("Bytes did not grow after merge: %d -> %d", finished, merged)
	}
}

func TestEstimateFZeroAllocs(t *testing.T) {
	s := fastpathSketch(t, 4, true)
	allocs := testing.AllocsPerRun(200, func() {
		s.EstimateF(17, 12_345)
	})
	if allocs != 0 {
		t.Fatalf("EstimateF allocates %.1f times per op, want 0", allocs)
	}
}

func TestBurstinessZeroAllocs(t *testing.T) {
	for _, s := range []*Sketch{fastpathSketch(t, 4, true), fastpathDirect(t, 4, true)} {
		allocs := testing.AllocsPerRun(200, func() {
			s.Burstiness(17, 12_345, pbe.MustSpan(1000))
		})
		if allocs != 0 {
			t.Fatalf("%d×%d: Burstiness allocates %.1f times per op, want 0", s.d, s.w, allocs)
		}
	}
}

// TestAppendBatchMatchesAppend holds batched ingest to the per-element twin,
// for a Count-Min sketch 16 wide and a collision-free level of 32 ids: same
// bytes, counters and footprint (a stale Bytes memo would show), across batch
// boundaries, batches shorter than, as long as and longer than a row (fed in
// arrival order or cell-major), shifted ids, ids beyond the level's space, and
// a second round after Finish.
func TestAppendBatchMatchesAppend(t *testing.T) {
	data := mixedStream(5, 3000, 200)
	for i := range data {
		if i%7 == 0 {
			data[i].Event += 1 << 20 // past both id spaces: folded mod 32 by the identity hash
		}
	}
	sizes := []int{15, 16, 31, 32, 33, 701}
	for _, shift := range []uint{0, 3} {
		build := func() []*Sketch {
			s, err := New(3, 16, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDirect(32, 2)
			if err != nil {
				t.Fatal(err)
			}
			return []*Sketch{s, d}
		}
		want, got := build(), build()
		for k := range want {
			w, g := want[k], got[k]
			g.Bytes() // fill the memo the batch must invalidate
			for round, part := range []stream.Stream{data[:2000], data[2000:]} {
				for _, el := range part {
					w.Append(el.Event>>shift, el.Time)
				}
				g.AppendBatch(nil, shift)
				for lo, b := 0, 0; lo < len(part); b++ {
					hi := min(lo+sizes[b%len(sizes)], len(part))
					g.AppendBatch(part[lo:hi], shift)
					lo = hi
				}
				if g.Bytes() != w.Bytes() {
					t.Fatalf("%d×%d shift %d round %d: open Bytes %d, per-element %d", g.d, g.w, shift, round, g.Bytes(), w.Bytes())
				}
				w.Finish()
				g.Finish()
				if !bytes.Equal(encoded(t, g), encoded(t, w)) || g.N() != w.N() || g.MaxTime() != w.MaxTime() || g.Bytes() != w.Bytes() {
					t.Fatalf("%d×%d shift %d round %d: batched ingest differs from per-element (N %d/%d, maxT %d/%d, Bytes %d/%d)",
						g.d, g.w, shift, round, g.N(), w.N(), g.MaxTime(), w.MaxTime(), g.Bytes(), w.Bytes())
				}
			}
		}
	}
}
