package cmpbe

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/pbe"
	"histburst/internal/pbe1"
	"histburst/internal/stream"
)

// The query-path overhaul must be invisible in results: every fast path is
// checked here for exact (bit-level) equality against the straightforward
// implementation it replaced, and the zero-allocation claims are pinned by
// testing.AllocsPerRun.

func fastpathSketch(t *testing.T, factory func() (Factory, error), finish bool) *Sketch {
	t.Helper()
	f, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(5, 64, 3, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range mixedStream(5, 30_000, 512) {
		s.Append(el.Event, el.Time)
	}
	if finish {
		s.Finish()
	}
	return s
}

func TestBurstinessMatchesNaive(t *testing.T) {
	factories := map[string]func() (Factory, error){
		"pbe2": func() (Factory, error) { return PBE2Factory(4) },
		"pbe1": func() (Factory, error) { return PBE1Factory(64, 12) },
	}
	for name, factory := range factories {
		for _, finish := range []bool{false, true} {
			s := fastpathSketch(t, factory, finish)
			r := rand.New(rand.NewSource(9))
			horizon := s.MaxTime()
			for trial := 0; trial < 4000; trial++ {
				e := uint64(r.Intn(512))
				// Instants off both ends of the stream included: the head and
				// before-first-segment paths must agree too.
				ts := int64(r.Intn(int(horizon)+200)) - 100
				tau := int64(1 + r.Intn(2000))
				got := s.Burstiness(e, ts, tau)
				want := s.burstinessNaive(e, ts, tau)
				if got != want {
					t.Fatalf("%s finish=%v: Burstiness(%d, %d, %d) = %v, naive = %v",
						name, finish, e, ts, tau, got, want)
				}
			}
		}
	}
}

func TestEstimateFMatchesPerCellMedian(t *testing.T) {
	s := fastpathSketch(t, func() (Factory, error) { return PBE2Factory(4) }, true)
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 2000; trial++ {
		e := uint64(r.Intn(512))
		ts := int64(r.Intn(int(s.MaxTime()) + 1))
		got := s.EstimateF(e, ts)
		vals := make([]float64, s.d)
		for i := 0; i < s.d; i++ {
			vals[i] = s.cells[i][s.hf.Hash(i, e)].Estimate(ts)
		}
		sort.Float64s(vals)
		want := vals[len(vals)/2]
		if got != want {
			t.Fatalf("EstimateF(%d, %d) = %v, reference median = %v", e, ts, got, want)
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
	s := fastpathSketch(t, func() (Factory, error) { return PBE2Factory(4) }, true)
	for e := uint64(0); e < 64; e++ {
		v := s.View(e).(*view)
		got := v.Breakpoints()
		// Reference: union via map, then sort.
		set := map[int64]bool{}
		for _, c := range v.cells {
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
	f, err := PBE2Factory(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(3, 16, 1, f)
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
	o, err := New(3, 16, 1, f)
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
	if err := s.MergeAppend(o); err != nil {
		t.Fatal(err)
	}
	if merged := s.Bytes(); merged <= finished {
		t.Fatalf("Bytes did not grow after merge: %d -> %d", finished, merged)
	}
}

func TestEstimateFZeroAllocs(t *testing.T) {
	s := fastpathSketch(t, func() (Factory, error) { return PBE2Factory(4) }, true)
	allocs := testing.AllocsPerRun(200, func() {
		s.EstimateF(17, 12_345)
	})
	if allocs != 0 {
		t.Fatalf("EstimateF allocates %.1f times per op, want 0", allocs)
	}
}

func TestBurstinessZeroAllocs(t *testing.T) {
	for name, factory := range map[string]func() (Factory, error){
		"pbe2": func() (Factory, error) { return PBE2Factory(4) },
		"pbe1": func() (Factory, error) { return PBE1Factory(64, 12) },
	} {
		s := fastpathSketch(t, factory, true)
		allocs := testing.AllocsPerRun(200, func() {
			s.Burstiness(17, 12_345, 1000)
		})
		if allocs != 0 {
			t.Fatalf("%s: Burstiness allocates %.1f times per op, want 0", name, allocs)
		}
	}
}

// TestAppendBatchMatchesAppend holds both summaries' batched ingest to the
// per-element twin: same bytes, counters and footprint (a stale Bytes memo
// would show), for PBE-2 and PBE-1 cells, across batch boundaries, shifted
// ids, ids beyond a Direct's space, and a second round after Finish. A PBE-1
// level does not serialize, so its cells are compared in pbe1's own binary
// form.
func TestAppendBatchMatchesAppend(t *testing.T) {
	data := mixedStream(5, 3000, 200)
	for i := range data {
		if i%7 == 0 {
			data[i].Event += 1 << 20 // folded by Direct, hashed as is by Sketch
		}
	}
	factories := map[string]func() (Factory, error){
		"pbe2": func() (Factory, error) { return PBE2Factory(2) },
		"pbe1": func() (Factory, error) { return PBE1Factory(64, 8) },
	}
	type summary interface {
		Append(e uint64, t int64)
		AppendBatch(elems []stream.Element, shift uint)
		Finish()
		N() int64
		MaxTime() int64
		Bytes() int
		Encode(w *binenc.Writer) error
	}
	encoded := func(s summary) []byte {
		t.Helper()
		var w binenc.Writer
		var cells []pbe.PBE
		switch s := s.(type) {
		case *Sketch:
			cells = s.flat
		case *Direct:
			cells = s.cells
		}
		if _, ok := cells[0].(*pbe1.Builder); !ok {
			if err := s.Encode(&w); err != nil {
				t.Fatal(err)
			}
			return w.Bytes()
		}
		for _, c := range cells {
			blob, err := c.(*pbe1.Builder).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			w.BytesBlob(blob)
		}
		return w.Bytes()
	}
	for name, mk := range factories {
		f, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, shift := range []uint{0, 3} {
			build := func() []summary {
				s, err := New(3, 16, 7, f)
				if err != nil {
					t.Fatal(err)
				}
				d, err := NewDirect(32, f)
				if err != nil {
					t.Fatal(err)
				}
				return []summary{s, d}
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
					for lo := 0; lo < len(part); lo += 701 {
						g.AppendBatch(part[lo:min(lo+701, len(part))], shift)
					}
					if g.Bytes() != w.Bytes() {
						t.Fatalf("%s %T shift %d round %d: open Bytes %d, per-element %d", name, g, shift, round, g.Bytes(), w.Bytes())
					}
					w.Finish()
					g.Finish()
					if !bytes.Equal(encoded(g), encoded(w)) || g.N() != w.N() || g.MaxTime() != w.MaxTime() || g.Bytes() != w.Bytes() {
						t.Fatalf("%s %T shift %d round %d: batched ingest differs from per-element (N %d/%d, maxT %d/%d, Bytes %d/%d)",
							name, g, shift, round, g.N(), w.N(), g.MaxTime(), w.MaxTime(), g.Bytes(), w.Bytes())
					}
				}
			}
		}
	}
}
