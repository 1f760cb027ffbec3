package segstore

import (
	"bytes"
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"histburst"
	"histburst/internal/pbe"
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
	if _, acc, _, _ := h.appendBatch(elems, 1024, 0); acc != int64(len(elems)) {
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

// headSeqOrigins are the time origins FuzzHeadSeq draws from: small,
// Unix-second, Unix-millisecond, near MaxInt64 (where gaps saturate into
// runs at MaxInt64) and MinInt64 (where 64-bit gaps add up to spans past
// MaxInt64).
var headSeqOrigins = [...]int64{0, 1_700_000_000, 1_700_000_000_000, math.MaxInt64 - 1<<40, math.MinInt64}

// headSeqElems turns fuzz input into a sorted stream over events 0–2. Each
// byte pair appends one to four elements of one event, spaced by a gap
// whose bit width is drawn from 0 to 64 — 0, runs of equal timestamps, eight
// times as often as any other — so chunks pack at every width. A pair (w+7,
// e), 1 ≤ w ≤ 64, e ≤ 2, appends one element of event e a gap of exactly
// 2^(w−1) after the last. Then a final run of event 0 at one later instant,
// align elements past the one that would close event 0's open chunk: 0 ends
// the run exactly on a packed-chunk boundary, a positive align carries it
// across one, a negative one stops it short.
func headSeqElems(origin int64, data []byte, align int8) stream.Stream {
	var out stream.Stream
	tm := origin
	step := func(g uint64) {
		if g > uint64(math.MaxInt64)-uint64(tm) { // the room left, modulo 2⁶⁴
			tm = math.MaxInt64
		} else {
			tm += int64(g)
		}
	}
	for i := 0; i+1 < len(data) && len(out) < 2000; i += 2 {
		width, reps := uint(max(int(data[i]%72)-7, 0)), 1+int(data[i]/72)
		e, mag := uint64(data[i+1]%3), uint64(data[i+1]/3)
		var g uint64
		if width > 0 { // the top bit set, the bits below it drawn from mag
			g = 1<<(width-1) | mag*0x9e3779b97f4a7c15>>(65-width)
		}
		for range reps {
			step(g)
			out = append(out, stream.Element{Event: e, Time: tm})
		}
	}
	n0 := 0
	for _, el := range out {
		if el.Event == 0 {
			n0++
		}
	}
	run := headChunk - n0%headChunk + int(align)
	step(1)
	for range max(run, 1) {
		out = append(out, stream.Element{Event: 0, Time: tm})
	}
	return out
}

// checkHeadSeq holds h to its sorted-slice naive twin want, each event's
// timestamps in arrival order: counts at and around every stored instant and
// at the ends of time, windows between neighbouring instants, arrivals, the
// merged stream, and bytes() recomputed from the chunk widths the twin's
// own gaps call for.
func checkHeadSeq(t *testing.T, h *memHead, want map[uint64][]int64) {
	t.Helper()
	var all stream.Stream
	var instants []int64
	wantBytes := 0
	for e, ts := range want {
		for _, tm := range ts {
			all = append(all, stream.Element{Event: e, Time: tm})
		}
		for c := 0; c < len(ts); c += headChunk {
			chunk := ts[c:min(c+headChunk, len(ts))]
			maxGap := uint64(0)
			for i := 1; i < len(chunk); i++ {
				maxGap = max(maxGap, uint64(chunk[i])-uint64(chunk[i-1]))
			}
			// Every gap at the bit width of the widest.
			bitsIn := (len(chunk) - 1) * bits.Len64(maxGap)
			if len(chunk) == headChunk { // packed: 16 B of metadata
				wantBytes += packedChunkBytes + (bitsIn+7)/8
			} else { // open: its first timestamp, then its gaps
				wantBytes += 8 + (bitsIn+7)/8
			}
		}
	}
	slices.SortFunc(all, byTimeThenID)
	if got := collectInOrder(h); !slices.Equal(got, all) {
		t.Fatalf("inOrder yields %d elements, want %d in time-then-id order", len(got), len(all))
	}
	if got := h.bytes(); got != wantBytes {
		t.Fatalf("bytes() = %d, want %d", got, wantBytes)
	}
	for _, el := range all {
		instants = append(instants, el.Time)
		if el.Time > math.MinInt64 {
			instants = append(instants, el.Time-1)
		}
		if el.Time < math.MaxInt64 {
			instants = append(instants, el.Time+1)
		}
	}
	instants = append(instants, math.MinInt64, math.MaxInt64)
	slices.Sort(instants)
	instants = slices.Compact(instants)
	countTo := func(ts []int64, tm int64) int64 {
		n, _ := slices.BinarySearch(ts, tm+1)
		if tm == math.MaxInt64 {
			n = len(ts)
		}
		return int64(n)
	}
	for e := uint64(0); e < 4; e++ { // event 3 is never appended
		ts := want[e]
		if got := h.arrivals(e); !slices.Equal(got, stream.TimestampSeq(ts)) {
			t.Fatalf("event %d: arrivals %v, want %v", e, got, ts)
		}
		for _, tm := range instants {
			if got, exp := h.countAtOrBefore(e, tm), float64(countTo(ts, tm)); got != exp {
				t.Fatalf("event %d: F(%d) = %v, want %v", e, tm, got, exp)
			}
		}
	}
	for i := 1; i < len(instants); i++ {
		lo, hi := instants[i-1], instants[i]
		var exp []uint64
		for e, ts := range want {
			in := countTo(ts, hi)
			if lo > math.MinInt64 {
				in -= countTo(ts, lo-1)
			}
			if got := h.byEvent.get(e).countIn(h.arenas, lo, hi); got != in {
				t.Fatalf("event %d: %d in [%d, %d], want %d", e, got, lo, hi, in)
			}
			if in > 0 {
				exp = append(exp, e)
			}
		}
		got := h.eventsInWindow(lo, hi)
		slices.Sort(got)
		slices.Sort(exp)
		if !slices.Equal(got, exp) {
			t.Fatalf("events in [%d, %d]: %v, want %v", lo, hi, got, exp)
		}
	}
}

// FuzzHeadSeq holds the packed head to a sorted-slice naive twin: a head
// built from the stream, then the same head after a freeze(true) tail split
// — which pops the final run off each sequence, unpacking a packed chunk
// when the run reaches back into one — against the twin with the final run
// removed.
func FuzzHeadSeq(f *testing.F) {
	// Random mixes at every origin and alignment, kept small: the engine
	// minimises each new interesting input, trying O(n²) cuts of its n
	// bytes, each a check that costs more the more elements it decodes to,
	// so long seeds spend most of a pass being minimised. One seed an
	// origin, four elements a pair at gap 1, takes event 1 past two packed
	// chunks in 66 bytes.
	rng := rand.New(rand.NewSource(1))
	for o := range headSeqOrigins {
		for _, align := range []int8{0, 5, 40, -3, -31} {
			data := make([]byte, 2*(16+rng.Intn(48)))
			rng.Read(data)
			f.Add(uint8(o), data, align)
		}
		f.Add(uint8(o), bytes.Repeat([]byte{224, 1}, 33), int8(0))
	}
	f.Add(uint8(0), []byte{}, int8(0))                        // the final run alone: one w = 0 chunk
	f.Add(uint8(3), bytes.Repeat([]byte{71, 1}, 90), int8(7)) // 64-bit gaps saturating at MaxInt64
	// A base of event e, then one gap of each bit width from lo to hi,
	// each wider than every gap before it, so the open chunk rewidens at
	// every step, one bit at a time. From MinInt64 no gap saturates: the
	// gaps are powers of two, and 2 to 64 bits sum to less than 2⁶⁴.
	widening := func(e, lo, hi byte) []byte {
		data := []byte{0, e}
		for w := lo; w <= hi; w++ {
			data = append(data, w+7, e)
		}
		return data
	}
	for o := range headSeqOrigins {
		// Event 1's open chunk widens through 0 → 61 and stays open.
		f.Add(uint8(o), widening(1, 0, 61), int8(-20))
		// Event 1's open chunk widens through 3 → 64, the gaps one word
		// load cannot hold among them, and stays open: from MinInt64 it
		// spans more than MaxInt64.
		f.Add(uint8(o), widening(1, 3, 64), int8(-20))
		// The tail split ends inside event 0's open chunk, widened to 40
		// bits before the final run.
		f.Add(uint8(o), widening(0, 0, 40), int8(-10))
		// The final run's step alone widens event 0's open chunk, from 0
		// to 1; popping the run narrows it back.
		f.Add(uint8(o), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, int8(-10))
		// The final run packs event 0's widened chunk and spills 5 into a
		// new open one: the split pops those, then unpacks the packed chunk
		// and pops on inside it — at 40 bits, and at 64 bits across more
		// than MaxInt64 from MinInt64.
		f.Add(uint8(o), widening(0, 2, 40), int8(5))
		f.Add(uint8(o), widening(0, 8, 64), int8(5))
	}
	f.Fuzz(func(t *testing.T, origin uint8, data []byte, align int8) {
		elems := headSeqElems(headSeqOrigins[int(origin)%len(headSeqOrigins)], data, align)
		h := newMemHead(math.MinInt64)
		if _, acc, _, _ := h.appendBatch(elems, 1024, 0); acc != int64(len(elems)) {
			t.Fatalf("appendBatch accepted %d of %d", acc, len(elems))
		}
		want := map[uint64][]int64{}
		for _, el := range elems {
			want[el.Event] = append(want[el.Event], el.Time)
		}
		checkHeadSeq(t, h, want)

		minT, maxT := elems[0].Time, elems[len(elems)-1].Time
		var wantTail stream.Stream
		if minT < maxT {
			for e, ts := range want {
				for len(ts) > 0 && ts[len(ts)-1] == maxT {
					ts = ts[:len(ts)-1]
					wantTail = append(wantTail, stream.Element{Event: e, Time: maxT})
				}
				want[e] = ts
			}
		}
		tail := h.freeze(true)
		slices.SortFunc(tail, byTimeThenID)
		slices.SortFunc(wantTail, byTimeThenID)
		if !slices.Equal(tail, wantTail) {
			t.Fatalf("tail split returned %d elements, want the final run's %d", len(tail), len(wantTail))
		}
		for e, ts := range want {
			if len(ts) == 0 {
				delete(want, e)
			}
		}
		checkHeadSeq(t, h, want)
		if n, _, gotMax, _ := h.snapshot(); n != int64(len(elems)-len(tail)) ||
			(len(tail) > 0 && gotMax != elems[len(elems)-len(tail)-1].Time) {
			t.Fatalf("frozen head counts n=%d maxT=%d after a %d-element tail split", n, gotMax, len(tail))
		}
	})
}

// TestConcurrentHeadInOrderBesideAppends: inOrder merges outside the lock
// while appends go on packing chunks and rewriting, in place, the open
// buffers it decoded; every merge must still be a per-event prefix of what
// was appended, in time-then-id order. Run it under -race: a merge that
// decoded an open buffer after the lock dropped fails it.
func TestConcurrentHeadInOrderBesideAppends(t *testing.T) {
	elems := tieStream(20_000, 16, 1_700_000_000, 11)
	want := map[uint64][]int64{}
	for _, el := range elems {
		want[el.Event] = append(want[el.Event], el.Time)
	}
	h := newMemHead(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 0; lo < len(elems); lo += 64 {
			h.appendBatch(elems[lo:min(lo+64, len(elems))], 1024, 0)
		}
	}()
	for merges := 0; ; merges++ {
		select {
		case <-done:
			if merges == 0 {
				t.Log("the appends finished before the first merge")
			}
			if got := collectInOrder(h); len(got) != len(elems) {
				t.Fatalf("final merge yields %d elements, want %d", len(got), len(elems))
			}
			return
		default:
		}
		got := collectInOrder(h)
		if !slices.IsSortedFunc(got, byTimeThenID) {
			t.Fatalf("merge %d is out of time-then-id order", merges)
		}
		seen := map[uint64]int{}
		for _, el := range got {
			if i := seen[el.Event]; i >= len(want[el.Event]) || want[el.Event][i] != el.Time {
				t.Fatalf("merge %d: event %d's element %d is %d, not what was appended", merges, el.Event, i, el.Time)
			}
			seen[el.Event]++
		}
	}
}

// TestPackedChunkBytes: bytes() counts a packed chunk's metadata at the
// struct's real size.
func TestPackedChunkBytes(t *testing.T) {
	if got := unsafe.Sizeof(packedChunk{}); got != packedChunkBytes {
		t.Fatalf("packedChunk is %d bytes, packedChunkBytes says %d", got, packedChunkBytes)
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
				if a, b := post.burstiness(e, tm, pbe.MustSpan(tau)), pre.burstiness(e, tm, pbe.MustSpan(tau)); a != b {
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

// TestPackedHeadSealAndBaselineBytes: heads whose events fill packed chunks
// — six ids, so each fills several a head, and runs of equal timestamps, so
// some pack at width 0 — seal into the bytes a detector fed the same
// elements in arrival order writes, and a WAL rotation of a live packed head
// writes the baseline record unpacked heads wrote: the unsealed elements in
// time-then-id order, positioned at the sealed count.
func TestPackedHeadSealAndBaselineBytes(t *testing.T) {
	elems := tieStream(3700, 6, 1_700_000_000, 8)
	cfg := testConfig(1500)
	cfg.CompactFanout = -1
	dir := t.TempDir()
	s := mustOpen(t, dir, cfg)
	defer mustClose(t, s)
	appendAll := func(part stream.Stream) {
		for lo := 0; lo < len(part); lo += 97 {
			if _, _, err := s.AppendBatch(part[lo:min(lo+97, len(part))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll(elems[:2500])
	if err := s.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	appendAll(elems[2500:])

	durable := int64(0)
	for _, g := range s.view.Load().segs {
		direct, err := histburst.NewFromParams(s.params)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range elems[durable : durable+g.meta.Elements] {
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
			t.Fatalf("segment %d: %d sealed bytes differ from %d built directly", g.meta.ID, got.Len(), want.Len())
		}
		durable += g.meta.Elements
	}
	h := s.view.Load().head
	h.mu.RLock()
	packed := h.packed
	h.mu.RUnlock()
	if durable < 2000 || packed < 6*2 {
		t.Fatalf("fixture sealed %d elements and left %d packed chunks in the head, want ≥ 2000 and ≥ 12", durable, packed)
	}

	if err := s.rotateWAL(); err != nil {
		t.Fatal(err)
	}
	unsealed := slices.Clone(elems[durable:])
	slices.SortStableFunc(unsealed, byTimeThenID)
	want := append(slices.Clone(walMagic), encodeWALRecord(durable, unsealed)...)
	logs, err := filepath.Glob(filepath.Join(dir, walFilePrefix+"*"+walFileSuffix))
	if err != nil || len(logs) != 1 {
		t.Fatalf("store directory holds logs %v (%v), want the one rotated", logs, err)
	}
	got, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rotated log is %d bytes, want the %d-byte baseline of %d unsealed elements", len(got), len(want), len(unsealed))
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
// alive. bytes() counts what is stored for the elements: per packed chunk
// its 16 B of metadata and 63 gaps at its bit width, plus per open chunk its
// first timestamp and its gaps at its bit width. Past that, a head may hold
// at most a fixed cost per event — its sequence header, index slots, the
// spare capacity of its open buffer and its share of the chunk list's slack
// and the arenas' uncarved tails — and at most perElem bytes an element all
// told. Two heads: a skewed synthetic one, and the one the benchmark's
// http_mixed workload accumulates, which also bounds bytes() itself. They
// measure 1.40 and 1.48 B an element counted; held, the synthetic head 3.8
// B an element and 142 B an event past the count, the olympicrio one 4.0 B
// and 156 B, so the bounds below leave ~20–40 % of margin. Not parallel: it
// reads process-wide heap statistics.
func TestHeadHeapTracksBytes(t *testing.T) {
	const perEvent = 200 // bytes an event may hold beyond what bytes() counts
	// A skewed head: 60 k elements over 1 024 ids, three to an instant, so a
	// few hot ids fill many chunks and a long tail holds one part-filled
	// open chunk each.
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.1, 4, 1023)
	synthetic := make(stream.Stream, 60_000)
	for i := range synthetic {
		synthetic[i] = stream.Element{Event: zipf.Uint64(), Time: int64(i / 3)}
	}
	for _, tc := range []struct {
		name     string
		elems    stream.Stream
		perElem  float64 // heap bytes an element may cost all told
		maxBytes float64 // bytes() an element may count (0: unchecked)
	}{
		{"zipf", synthetic, 5.5, 0},
		{"olympicrio", rioHeadElems(), 5.0, 1.55},
	} {
		held, v := heapHeld(func() any {
			h := newMemHead(0)
			if _, acc, _, _ := h.appendBatch(tc.elems, 1024, 0); acc != int64(len(tc.elems)) {
				t.Fatalf("%s: appendBatch accepted %d of %d", tc.name, acc, len(tc.elems))
			}
			return h
		})
		h := v.(*memHead)
		n := float64(len(tc.elems))
		counted, events := h.bytes(), h.byEvent.n
		t.Logf("%s: bytes() = %d (%.2f B/elem), heap = %d (%.1f B/elem, %.2f×), %d events, %d packed chunks",
			tc.name, counted, float64(counted)/n, held, float64(held)/n, float64(held)/float64(counted), events, h.packed)
		if int(held) > counted+perEvent*events {
			t.Errorf("%s: head holds %d heap bytes against bytes() = %d: %d beyond the count, want at most %d B × %d events",
				tc.name, held, counted, int(held)-counted, perEvent, events)
		}
		if float64(held) > tc.perElem*n {
			t.Errorf("%s: head holds %.1f B an element, want at most %g", tc.name, float64(held)/n, tc.perElem)
		}
		if tc.maxBytes > 0 && float64(counted) > tc.maxBytes*n {
			t.Errorf("%s: bytes() counts %.2f B an element, want at most %g", tc.name, float64(counted)/n, tc.maxBytes)
		}
		runtime.KeepAlive(tc.elems) // or the input dies mid-measurement and is subtracted
	}
}
