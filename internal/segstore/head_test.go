package segstore

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"histburst"
	"histburst/internal/stream"
)

// tieStream returns n elements in runs of equal timestamps — up to 60 a run,
// ids drawn at random with repeats — so arrival order inside a run is not
// event-id order, which is where a head's merged order differs from it.
func tieStream(n int, span uint64, t0, seed int64) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	out := make(stream.Stream, 0, n)
	for tm := t0; len(out) < n; tm += 1 + rng.Int63n(5) {
		for run := 1 + rng.Intn(60); run > 0 && len(out) < n; run-- {
			out = append(out, stream.Element{Event: rng.Uint64() % span, Time: tm})
		}
	}
	return out
}

// byTimeThenID is the order inOrder promises.
func byTimeThenID(a, b stream.Element) int {
	return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Event, b.Event))
}

func collectInOrder(h *memHead) stream.Stream {
	var out stream.Stream
	h.inOrder(func(e uint64, t int64) { out = append(out, stream.Element{Event: e, Time: t}) })
	return out
}

// TestHeadInOrderIsTimeThenID: the merge yields exactly the head's elements,
// by timestamp and then event id — before a freeze and after a tail split,
// which pops the final run off every sequence and leaves the rest in place.
// The final run sits at MaxInt64, the key an exhausted cursor carries.
func TestHeadInOrderIsTimeThenID(t *testing.T) {
	elems := tieStream(5000, 200, 100, 3)
	for _, e := range []uint64{7, 2, 199, 2} {
		elems = append(elems, stream.Element{Event: e, Time: math.MaxInt64})
	}
	h := newMemHead(0)
	if _, acc, _, _ := h.appendBatch(elems, 1024, sealLimits{}); acc != int64(len(elems)) {
		t.Fatalf("appendBatch accepted %d of %d", acc, len(elems))
	}
	want := slices.Clone(elems)
	slices.SortStableFunc(want, byTimeThenID)
	if got := collectInOrder(h); !slices.Equal(got, want) {
		t.Fatalf("inOrder yields %d elements out of order or incomplete, want %d", len(got), len(want))
	}

	tail := h.freeze(true)
	lastT := want[len(want)-1].Time
	cut := len(want)
	for cut > 0 && want[cut-1].Time == lastT {
		cut--
	}
	slices.SortFunc(tail, byTimeThenID)
	if !slices.Equal(tail, want[cut:]) {
		t.Fatalf("tail split returned %v, want the final run %v", tail, want[cut:])
	}
	if got := collectInOrder(h); !slices.Equal(got, want[:cut]) {
		t.Fatalf("frozen head yields %d elements, want the %d before the final run", len(got), cut)
	}
	if n, _, maxT, _ := h.snapshot(); n != int64(cut) || maxT != want[cut-1].Time {
		t.Fatalf("frozen head counts n=%d maxT=%d, want %d and %d", n, maxT, cut, want[cut-1].Time)
	}
}

// TestSealedSegmentMatchesDirectBuild: a head read back through the merge
// seals into the bytes a detector fed the same elements in arrival order
// writes — a PBE-2 cell sees only timestamps, so the order of equal
// timestamps across ids cannot reach a summary. The stream's runs of equal
// timestamps span many ids and straddle both kinds of seal boundary: size
// freezes and two Checkpoint(false) tail splits. The WAL baseline carries
// the same merged order, so after a rotation and a crash the reopened head
// answers exactly as the one that crashed.
func TestSealedSegmentMatchesDirectBuild(t *testing.T) {
	elems := tieStream(6000, 64, 1000, 5)
	cfg := testConfig(700)
	cfg.CompactFanout = -1 // one segment per seal, so each maps to one arrival range
	dir := t.TempDir()
	s := mustOpen(t, dir, cfg)
	half := len(elems) / 2
	for _, part := range []stream.Stream{elems[:half], elems[half:]} {
		for lo := 0; lo < len(part); lo += 97 {
			if _, _, err := s.AppendBatch(part[lo:min(lo+97, len(part))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(false); err != nil {
			t.Fatal(err)
		}
	}

	// Sealed segments cover consecutive arrival ranges: a tail split moves
	// the last arrivals of a head to the next one.
	pos := int64(0)
	segs := s.view.Load().segs
	for _, g := range segs {
		direct, err := histburst.NewFromParams(s.params)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range elems[pos : pos+g.meta.Elements] {
			direct.Append(el.Event, el.Time)
		}
		direct.Finish()
		var want, got bytes.Buffer
		if err := direct.Save(&want); err != nil {
			t.Fatal(err)
		}
		if err := g.detector().Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("segment %d (arrivals %d–%d, t %d–%d): %d sealed bytes differ from %d built directly",
				g.meta.ID, pos, pos+g.meta.Elements, g.meta.MinT, g.meta.MaxT, got.Len(), want.Len())
		}
		pos += g.meta.Elements
	}
	if len(segs) < 8 {
		t.Fatalf("fixture sealed %d segments, want size freezes and splits to give at least 8", len(segs))
	}
	if hn, _, _, _ := s.view.Load().head.snapshot(); pos+hn != int64(len(elems)) {
		t.Fatalf("segments hold %d and the head %d of %d elements", pos, hn, len(elems))
	}

	// A live head with runs across ids, restated by a rotation, then a crash.
	if _, _, err := s.AppendBatch(tieStream(500, 64, s.Frontier()+1, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.rotateWAL(); err != nil {
		t.Fatal(err)
	}
	pre := s.view.Load().head
	crashed := cloneDir(t, dir)
	mustClose(t, s)
	r := mustOpen(t, crashed, cfg)
	defer mustClose(t, r)
	post := r.view.Load().head

	pn, pmin, pmax, _ := pre.snapshot()
	qn, qmin, qmax, _ := post.snapshot()
	if pn != qn || pmin != qmin || pmax != qmax {
		t.Fatalf("reopened head (n, minT, maxT) = (%d, %d, %d), crashed one (%d, %d, %d)", qn, qmin, qmax, pn, pmin, pmax)
	}
	if !slices.Equal(collectInOrder(post), collectInOrder(pre)) {
		t.Fatal("reopened head merges to a different stream")
	}
	for e := uint64(0); e < 64; e++ {
		if !slices.Equal(post.arrivals(e), pre.arrivals(e)) {
			t.Fatalf("event %d: reopened arrivals %v, crashed %v", e, post.arrivals(e), pre.arrivals(e))
		}
		for tm := pmin - 3; tm <= pmax+3; tm += 7 {
			if a, b := post.countAtOrBefore(e, tm), pre.countAtOrBefore(e, tm); a != b {
				t.Fatalf("F_%d(%d): reopened %v, crashed %v", e, tm, a, b)
			}
			for _, tau := range []int64{5, 40} {
				if a, b := post.burstiness(e, tm, tau), pre.burstiness(e, tm, tau); a != b {
					t.Fatalf("b_%d(%d, τ=%d): reopened %v, crashed %v", e, tm, tau, a, b)
				}
			}
		}
	}
	for lo := pmin; lo <= pmax; lo += 50 {
		a, b := post.eventsInWindow(lo, lo+30), pre.eventsInWindow(lo, lo+30)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("events in [%d, %d]: reopened %v, crashed %v", lo, lo+30, a, b)
		}
	}
}

// heapHeld is layout_test.go's measurement: the live heap build leaves
// behind after GC.
func heapHeld(build func() any) (held uint64, v any) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v = build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0, v
	}
	return after.HeapAlloc - before.HeapAlloc, v
}

// TestHeadHeapTracksBytes holds memHead.bytes() to what a head really keeps
// alive: past the counted 8 B an element, at most a fixed cost per event —
// its sequence header, map entry, part-filled chunk, its share of the chunk
// lists and the open slab — and, all told, no more than twice the count.
// With a second, 16 B copy of every element in an append log beside the
// sequences, the head held 30–35 B an element against 24 counted; the log
// alone is the whole second bound. Not parallel: it reads process-wide heap
// statistics.
func TestHeadHeapTracksBytes(t *testing.T) {
	const (
		perEvent = 512 // bytes an event may hold beyond its counted timestamps
		perElem  = 16  // heap bytes an element may cost all told
	)
	// A benchmark-like head: 60 k elements over a skewed id space, so a few
	// hot ids fill many chunks and a long tail holds one part-filled chunk
	// each.
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.1, 4, 1023)
	elems := make(stream.Stream, 60_000)
	for i := range elems {
		elems[i] = stream.Element{Event: zipf.Uint64(), Time: int64(i / 3)}
	}
	held, v := heapHeld(func() any {
		h := newMemHead(0)
		if _, acc, _, _ := h.appendBatch(elems, 1024, sealLimits{}); acc != int64(len(elems)) {
			t.Fatalf("appendBatch accepted %d of %d", acc, len(elems))
		}
		return h
	})
	h := v.(*memHead)
	counted, events := h.bytes(), len(h.byEvent)
	t.Logf("bytes() = %d, heap = %d (%.1f B/elem, %.2f×), %d events",
		counted, held, float64(held)/float64(len(elems)), float64(held)/float64(counted), events)
	if int(held) > counted+perEvent*events {
		t.Errorf("head holds %d heap bytes against bytes() = %d: %d beyond the count, want at most %d B × %d events",
			held, counted, int(held)-counted, perEvent, events)
	}
	if held > perElem*uint64(len(elems)) {
		t.Errorf("head holds %.1f B an element, want at most %d", float64(held)/float64(len(elems)), perElem)
	}
	runtime.KeepAlive(elems) // or the input dies mid-measurement and is subtracted
}
