package pbe2

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// A cell stores each segment start as its offset from the first, at the
// width the widest offset needs: past 32 bits once one lies 2³² ticks or
// more past the first. These tests hold every cell to an int64 reference
// built from Segments(): the same answers from every kernel, the same file
// as the format writes from the int64 segments, and Bytes() exactly as
// documented.

// refSummary is the int64 reference: a sealed summary's segments, searched
// linearly, and its frontier.
type refSummary struct {
	segs         []Segment
	count, lastT int64
}

func refOf(s *Summary) refSummary {
	return refSummary{segs: s.Segments(), count: s.count, lastT: s.lastT}
}

func (r refSummary) estimate(t int64) float64 {
	if r.count > 0 && t >= r.lastT {
		return float64(r.count)
	}
	i := len(r.segs) - 1
	for i >= 0 && r.segs[i].Start > t {
		i--
	}
	if i < 0 {
		return 0
	}
	seg := r.segs[i]
	v := seg.Y + seg.A*float64(uint64(min(t, seg.End)-seg.Start))
	if v < 0 {
		return 0
	}
	return v
}

// wideForm reports whether s holds start offsets of more than 4 bytes.
func wideForm(s *Summary) bool { return s.sw > 4 }

// addTick returns t + d and whether the sum stayed in int64.
func addTick(t, d int64) (int64, bool) {
	v := t + d
	return v, (d >= 0) == (v >= t)
}

// refProbes is every instant at which a summary's answer may change, with
// its neighbours: each segment's ends, middle and the instants a start or an
// offset key truncated to 32 bits would land on, the frontier, and the ends
// of time. Ascending, without repeats. The segments' own probes are made in
// time order, a few places at most from their own, and put in place by
// insertion; only the truncated starts that differ from the true ones, and
// the dozen others, are sorted; the three runs are merged.
func refProbes(r refSummary) []int64 {
	add := func(out []int64, base int64, ds ...int64) []int64 {
		for _, d := range ds {
			if v, ok := addTick(base, d); ok {
				out = append(out, v)
			}
		}
		return out
	}
	own := make([]int64, 0, 7*len(r.segs))
	for _, s := range r.segs {
		own = add(own, s.Start, -1, 0, 1, int64(uint64(s.End-s.Start)/2))
		own = add(own, s.End, -1, 0, 1)
	}
	for i := 1; i < len(own); i++ {
		for j := i; j > 0 && own[j] < own[j-1]; j-- {
			own[j], own[j-1] = own[j-1], own[j]
		}
	}
	var cut []int64
	rest := []int64{math.MinInt64, math.MaxInt64}
	if len(r.segs) > 0 {
		first := r.segs[0].Start
		rest = add(rest, first, 1<<31-1, 1<<31, 1<<32-1, 1<<32, 1<<32+1, 1<<33)
		for _, s := range r.segs {
			// The start this one would read as with its offset cut to 32
			// bits, where that is not its own.
			if off := uint64(s.Start) - uint64(first); off > math.MaxUint32 {
				cut = add(cut, first, int64(uint32(off)), int64(uint32(off))+1)
			}
		}
	}
	rest = add(rest, r.lastT, -1, 0, 1)
	slices.Sort(cut)
	slices.Sort(rest)
	var bufs [2][]int64
	return pbe.MergeSorted([][]int64{own, cut, rest}, &bufs)
}

// sameFloat compares answers bit for bit.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// refBlock writes s as a one-cell block against maxT from its int64
// segments, the format as docs/FORMATS.md states it.
func refBlock(s *Summary, maxT int64) []byte {
	var w binenc.Writer
	w.Uint32(blockMagic)
	w.Float64(s.gamma)
	w.Uvarint(uint64(s.outOfOrder))
	if s.count == 0 {
		w.Byte(0)
		return w.Bytes()
	}
	segs := s.Segments()
	last := segs[len(segs)-1]
	w.Byte(1)
	w.Uvarint(uint64(len(segs)))
	w.Uvarint(uint64(s.count))
	w.Uvarint(uint64(s.count - s.prevF))
	w.Uvarint(uint64(s.lastT - last.End))
	if s.outOfOrder != 0 {
		w.Uvarint(uint64(s.outOfOrder))
	}
	forms, float := refForms(segs)
	aw := refSlopeWidth(segs, forms)
	writeBits(&w, []bool{float})
	writeWidths(&w, []int{aw})
	prevEnd := maxT
	for i, seg := range segs {
		if i == 0 {
			w.Varint(seg.Start - prevEnd)
		} else {
			w.Uvarint(uint64(seg.Start - prevEnd))
		}
		w.Uvarint(uint64(seg.End - seg.Start))
		writeLine(&w, seg.A, seg.Y, aw, forms[i] == escapedValue, float)
		prevEnd = seg.End
	}
	return w.Bytes()
}

// refSlope is the float32 bits a cell stores a segment's slope as: the
// escape marker for a segment escaped whole.
func refSlope(a float64, escaped bool) uint32 {
	if escaped {
		return 0x7fc00000
	}
	return math.Float32bits(float32(a))
}

// refSlopeWidth is the bytes a cell of segs, held in forms, stores each
// slope in: the top bytes of its float32 up to the lowest one that is not
// zero over all of them, and 2 where that is the top byte alone.
func refSlopeWidth(segs []Segment, forms []int) int {
	aw := 0
	for i, s := range segs {
		b := refSlope(s.A, forms[i] == escapedValue)
		w := 4
		for ; w > 0 && b&0xff == 0; w-- {
			b >>= 8
		}
		aw = max(aw, w)
	}
	if aw == 1 {
		return 2
	}
	return aw
}

// writeBits writes a bit a cell, bit i%8 of byte i/8 for the i-th.
func writeBits(w *binenc.Writer, bits []bool) {
	for lo := 0; lo < len(bits); lo += 8 {
		var b byte
		for i, set := range bits[lo:min(lo+8, len(bits))] {
			if set {
				b |= 1 << i
			}
		}
		w.Byte(b)
	}
}

// writeLine writes the slope and value of a segment record: the top aw
// bytes of the escape marker, a NaN, and both as float64 for a segment
// escaped whole; otherwise the top aw bytes of the float32 slope, then the
// value as a float64 in a cell of float64 values, or as a zigzag varint of
// 2⁻⁸ counts in a grid cell.
func writeLine(w *binenc.Writer, a, y float64, aw int, escaped, float bool) {
	b := refSlope(a, escaped)
	for k := 4 - aw; k < 4; k++ {
		w.Byte(byte(b >> (8 * k)))
	}
	switch {
	case escaped:
		w.Float64(a)
		w.Float64(y)
	case float:
		w.Float64(y)
	default:
		w.Varint(int64(y * 256))
	}
}

// narrowRef reports whether an int32 count of 2⁻⁸, at least −2³¹ + 2,
// holds a value at Start exactly: the reach of the 32-bit records the
// fixtures are built to pass.
func narrowRef(y float64) bool {
	k := y * 256
	return k == math.Trunc(k) && k >= math.MinInt32+2 && k <= math.MaxInt32
}

// parentForms replays the forms a cell held its segments in when every
// field took 32 bits — each one narrowValue, floatValue or escapedValue —
// and reports whether the cell held a line in the float64 form. A slope no
// float32 holds, or a length of 2³² − 1 ticks or more, escaped the segment;
// once a line was float64, every line was narrow or float64; a value on the
// int32 grid was narrow; one past the int32's range took the float64 form;
// one off the grid within it escaped while fewer than a sixth of the cell's
// segments before it, or fewer than three, had escaped, and took the
// float64 form after that.
func parentForms(segs []Segment) (forms []int, float bool) {
	escaped := 0
	for i, s := range segs {
		k := s.Y * 256
		form := floatValue
		switch {
		case float64(float32(s.A)) != s.A || uint64(s.End-s.Start) >= 1<<32-1:
			form = escapedValue
		case float:
		case narrowRef(s.Y):
			form = narrowValue
		case k >= math.MinInt32+2 && k <= math.MaxInt32 && 6*escaped < max(i, 18):
			form = escapedValue
		default:
			float = true
		}
		if form == escapedValue {
			escaped++
		}
		forms = append(forms, form)
	}
	return forms, float
}

// refForms replays how a cell holds segs, appended in order, and so how
// the block writes their records: each one's value on the grid
// (narrowValue), a float64 (floatValue) or escaped whole, and whether the
// cell ends holding float64 values. A slope no float32 holds escapes; a
// float64 cell keeps to float64; a value on the 2⁻⁸ grid within ±2⁵⁵ counts
// stays on it; one past that takes the cell to float64; one off the grid
// escapes while fewer than a sixth of the cell's segments before it, or
// fewer than three, have escaped, and takes the cell to float64 after that.
func refForms(segs []Segment) (forms []int, float bool) {
	escaped := 0
	for i, s := range segs {
		k := s.Y * 256
		form := floatValue
		switch {
		case float64(float32(s.A)) != s.A:
			form = escapedValue
		case float:
		case k < -(1<<63) || k >= 1<<63:
			float = true
		case k == math.Trunc(k):
			form = narrowValue
		case 6*escaped < max(i, 18):
			form = escapedValue
		default:
			float = true
		}
		if form == escapedValue {
			escaped++
		}
		forms = append(forms, form)
	}
	return forms, float
}

// refWidth is the bytes a packed field takes for values up to v.
func refWidth(v uint64) int {
	n := 0
	for ; v > 0; v >>= 8 {
		n++
	}
	return n
}

// refBytes is what Bytes reads for a cell of segs: the start offsets, the
// lengths, the values at Start and the slopes, each at the width in bytes
// its widest needs, a segment; past the last row what its loads read; 16
// bytes more for each escaped segment.
func refBytes(segs []Segment) int {
	if len(segs) == 0 {
		return 0
	}
	sw, row, reach, escaped := refShape(segs)
	n := len(segs)
	return n*sw + (n-1)*row + reach + 16*escaped
}

// refShape is what refBytes works out of a nonempty cell of segs: the width
// of its start offsets and of its rows, how far from its last row's start
// that row's loads read, and how many segments it escapes.
func refShape(segs []Segment) (sw, row, reach, escaped int) {
	forms, float := refForms(segs)
	var maxLen uint64
	minK, maxK, grid := int64(0), int64(0), false
	for i, s := range segs {
		maxLen = max(maxLen, uint64(s.End-s.Start))
		switch forms[i] {
		case escapedValue:
			escaped++
		case narrowValue:
			k := int64(s.Y * 256)
			if !grid {
				minK, maxK, grid = k, k, true
			}
			minK, maxK = min(minK, k), max(maxK, k)
		}
	}
	sw = refWidth(uint64(segs[len(segs)-1].Start) - uint64(segs[0].Start))
	lw, yw := refWidth(maxLen), 8
	if !float {
		yw = 0
		if grid {
			yw = refWidth(uint64(maxK - minK))
		}
		if escaped > 0 {
			yw = max(yw, refWidth(uint64(escaped-1)))
		}
	}
	// The last row's loads: 8 bytes from its start, which hold its y when
	// its length and y fit in them, else 8 more from its y's start, and the
	// slope's 4 from the slope's.
	reach = max(8, lw+yw+4)
	if lw+yw > 8 {
		reach = max(reach, lw+8)
	}
	return sw, lw + yw + refSlopeWidth(segs, forms), reach, escaped
}

// refLevelBytes is what a laid level of cells holding segss, in order,
// counts: each cell's starts and rows from where its predecessor's rows
// end, the array as long as the furthest a last row's loads read, and 16
// bytes an escaped segment.
func refLevelBytes(segss [][]Segment) int {
	off, size, lines := 0, 0, 0
	for _, segs := range segss {
		if len(segs) == 0 {
			continue
		}
		sw, row, reach, escaped := refShape(segs)
		n := len(segs)
		size = max(size, off+n*sw+(n-1)*row+reach)
		off += n * (sw + row)
		lines += 16 * escaped
	}
	return size + lines
}

// parentBytes is what a cell of segs counted when every field took 32
// bits: 16 bytes a segment, 4 more a segment once a start lies 2³² ticks or
// more past the first, 4 more once a record is in the float64 form, and 24
// more for each escaped record (parentForms).
func parentBytes(segs []Segment) int {
	if len(segs) == 0 {
		return 0
	}
	forms, float := parentForms(segs)
	n := 16 * len(segs)
	if uint64(segs[len(segs)-1].Start)-uint64(segs[0].Start) > math.MaxUint32 {
		n += 4 * len(segs)
	}
	if float {
		n += 4 * len(segs)
	}
	for _, f := range forms {
		if f == escapedValue {
			n += 24
		}
	}
	return n
}

// heldBytes is what a summary's columns hold, capacity and all.
func heldBytes(s *Summary) int {
	held := cap(s.cols)
	if w := s.wide; w != nil {
		held += 16 * cap(w.segs)
	}
	return held
}

// checkAgainstRef holds the sealed summary s to its int64 reference: Estimate,
// Estimate3 and the downsampling cursor answer alike at every probe, Bytes()
// is refBytes and equals what the columns hold, and the cell's file is the reference's and
// decodes to a summary that passes the same checks.
func checkAgainstRef(t *testing.T, what string, s *Summary, wide bool) {
	t.Helper()
	checkAnswers(t, what, s, wide)
	data := encodeBlock(t, []Builder{{summary: *s}}, s.lastT)
	if want := refBlock(s, s.lastT); !bytes.Equal(data, want) {
		t.Fatalf("%s: file differs from the one its int64 segments make\n got %x\nwant %x", what, data, want)
	}
	back := make([]Builder, 1)
	r := binenc.NewReader(data)
	if _, err := DecodeBlock(r, back, s.lastT); err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if got, want := back[0].Segments(), s.Segments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded segments differ", what)
	}
	checkAnswers(t, what+", decoded", &back[0].summary, wide)
	if again := encodeBlock(t, back, s.lastT); !bytes.Equal(again, data) {
		t.Fatalf("%s: decoded cell re-encodes differently", what)
	}
}

func checkAnswers(t *testing.T, what string, s *Summary, wide bool) {
	t.Helper()
	if wideForm(s) != wide {
		t.Fatalf("%s: wide form %v, want %v", what, wideForm(s), wide)
	}
	ref := refOf(s)
	probes := refProbes(ref)
	cur := srcCursor{s: s, i: -1}
	for _, p := range probes {
		want := ref.estimate(p)
		if got := s.Estimate(p); !sameFloat(got, want) {
			t.Fatalf("%s: Estimate(%d) = %v, want %v", what, p, got, want)
		}
		if got := cur.est(p); !sameFloat(got, want) {
			t.Fatalf("%s: cursor at %d = %v, want %v", what, p, got, want)
		}
		for _, tau := range [...]int64{1, 1000, 1 << 31, 1<<32 + 7, 1 << 40} {
			p1, ok1 := addTick(p, -tau)
			p0, ok0 := addTick(p1, -tau)
			if !ok1 || !ok0 {
				continue
			}
			f0, f1, f2 := s.Estimate3(p0, p1, p)
			if !sameFloat(f0, ref.estimate(p0)) || !sameFloat(f1, ref.estimate(p1)) || !sameFloat(f2, want) {
				t.Fatalf("%s: Estimate3(%d, %d, %d) = %v %v %v, want %v %v %v",
					what, p0, p1, p, f0, f1, f2, ref.estimate(p0), ref.estimate(p1), want)
			}
		}
	}
	if got, want := s.Bytes(), refBytes(ref.segs); got != want {
		t.Fatalf("%s: Bytes = %d, want %d for %d segments", what, got, want, len(ref.segs))
	}
	if got, parent := s.Bytes(), parentBytes(ref.segs); got > parent {
		t.Fatalf("%s: Bytes = %d, more than the %d of 32-bit fields", what, got, parent)
	}
	held := heldBytes(s)
	if held != s.Bytes() {
		t.Fatalf("%s: columns hold %d bytes, Bytes = %d", what, held, s.Bytes())
	}
}

// msStream is a millisecond-clock stream from origin: an arrival every few
// minutes with a burst every few days, over days days.
func msStream(seed, origin int64, days int) stream.TimestampSeq {
	r := rand.New(rand.NewSource(seed))
	var ts stream.TimestampSeq
	const day = 86_400_000
	for cur := origin; cur < origin+int64(days)*day; cur += 60_000 + r.Int63n(600_000) {
		ts = append(ts, cur)
		if r.Intn(400) == 0 {
			for j := 0; j < 40; j++ {
				ts = append(ts, cur)
			}
		}
	}
	return ts
}

// spreadStream is longRunStream with bursts step ticks apart.
func spreadStream(origin, step int64, bursts int) stream.TimestampSeq {
	var ts stream.TimestampSeq
	for k := 0; k < bursts; k++ {
		cur := origin + int64(k)*step
		for j := 0; j < 3; j++ {
			ts = append(ts, cur+int64(j)*1500)
		}
		for j := 0; j < 200; j++ {
			ts = append(ts, cur+4500)
		}
	}
	return ts
}

// checkAtArrivals is checkOneSided around each arrival — a span of 2³² ticks
// has too many instants to visit every one.
func checkAtArrivals(t *testing.T, what string, est func(int64) float64, ts stream.TimestampSeq, gamma float64) {
	t.Helper()
	for _, v := range ts {
		for _, q := range [...]int64{v - 1, v, v + 1} {
			checkInstant(t, what, est(q), float64(ts.CountAtOrBefore(q)), gamma, q)
		}
	}
}

// lateSteadyStream is a burst at origin and, just short of 2³² ticks later,
// a steady arrival every 1000 ticks that runs on past 2³²: one line fits the
// whole run, so every start stays within 32 bits of the first while the
// frontier, and the instants the last segment answers, do not.
func lateSteadyStream(origin int64) stream.TimestampSeq {
	ts := spreadStream(origin, 0, 1)
	for cur := origin + 1<<32 - 2_000_000; cur < origin+1<<32+2_000_000; cur += 1000 {
		ts = append(ts, cur)
	}
	return ts
}

// TestWideStarts builds the streams whose cells take the wide form — and
// narrow ones beside them, at the same origins — and holds each to the
// reference.
func TestWideStarts(t *testing.T) {
	const gamma = 16.0
	nano, _ := longRunStream(1.7e18, 6)
	cases := []struct {
		name string
		ts   stream.TimestampSeq
		wide bool
	}{
		{"nanoseconds at 1.7e18", nano, true},
		{"milliseconds over 60 days", msStream(1, 1.7e12, 60), true},
		{"milliseconds over 40 days", msStream(2, 1.7e12, 40), false},
		{"seconds at 1.7e9", randomTimestamps(3, 3000, 40), false},
		{"near MinInt64", spreadStream(math.MinInt64+2, 3<<31, 5), true},
		{"near MinInt64, narrow", spreadStream(math.MinInt64+2, 1<<29, 5), false},
		{"near MaxInt64", spreadStream(math.MaxInt64-(1<<36), 3<<31, 5), true},
		{"near MaxInt64, narrow", spreadStream(math.MaxInt64-(1<<32), 1<<29, 5), false},
		{"offsets past 2⁶³", spreadStream(math.MinInt64+1000, 1<<62, 4), true},
		{"narrow, frontier past 2³²", lateSteadyStream(1.7e18), false},
	}
	for _, c := range cases {
		b := buildPBE2(t, c.ts, gamma)
		checkAgainstRef(t, c.name, b.Seal(), c.wide)
	}
}

// halves returns two sealed narrow summaries of a millisecond stream that
// spans more than 2³² ms, cut between days 30 and 31: each spans less.
func halves(t *testing.T, gamma float64) (ts stream.TimestampSeq, a, b *Builder) {
	t.Helper()
	ts = msStream(4, 1.7e12, 60)
	cut := 1.7e12 + 30*86_400_000
	i, _ := slices.BinarySearch(ts, int64(cut))
	a, b = buildPBE2(t, ts[:i], gamma), buildPBE2(t, ts[i:], gamma)
	if wideForm(a.Seal()) || wideForm(b.Seal()) {
		t.Fatal("fixture: a half took the wide form")
	}
	return ts, a, b
}

// TestWideStartsByMerge: merges of two narrow summaries whose result first
// spans 2³² ticks, in one pass and segment by segment into the receiver.
func TestWideStartsByMerge(t *testing.T) {
	const gamma = 8.0
	ts, a, b := halves(t, gamma)
	want := a.Segments()
	for _, s := range b.Segments() {
		s.Y += float64(a.Count())
		want = append(want, s)
	}
	fin, err := MergeFinished(sealed(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fin.Segments(), want) {
		t.Fatal("MergeFinished: segments differ from the halves' lifted")
	}
	checkAgainstRef(t, "MergeFinished", fin.Seal(), true)
	checkAtArrivals(t, "MergeFinished", fin.Estimate, ts, gamma)

	recv := buildPBE2(t, ts[:a.Count()], gamma)
	if err := mergeAppend(recv, b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recv.summary, fin.summary) {
		t.Fatalf("merged segment by segment\n%+v\nin one pass\n%+v", recv.summary, fin.summary)
	}
}

// TestWideStartsByDownsample: a downsample of two narrow parts whose output
// spans 2³² ticks.
func TestWideStartsByDownsample(t *testing.T) {
	const gamma = 8.0
	_, a, b := halves(t, gamma)
	parts := [][]*Summary{{a.Seal()}, {b.Seal()}}
	out, err := Downsample(parts, 2*gamma, 1000)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := downsampleNaive(parts, 2*gamma, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Segments(), naive.Segments()) {
		t.Fatal("Downsample and its naive twin disagree")
	}
	checkAgainstRef(t, "downsampled", out.Seal(), true)
}

// TestWideStartsByAppendAfterFinish: a finished narrow cell goes on past 2³²
// ticks from its first start; the open window answers beside the widened
// columns, and Finish seals it.
func TestWideStartsByAppendAfterFinish(t *testing.T) {
	const gamma = 8.0
	ts, a, _ := halves(t, gamma)
	n := int(a.Count())
	for i, v := range ts[n:] {
		a.Append(v)
		if i == len(ts[n:])/2 {
			checkAtArrivals(t, "resumed, open", a.Estimate, ts[:n+i+1], gamma)
			f0, f1, f2 := a.Estimate3(v-2000, v-1000, v)
			if !sameFloat(f0, a.Estimate(v-2000)) || !sameFloat(f1, a.Estimate(v-1000)) || !sameFloat(f2, a.Estimate(v)) {
				t.Fatal("resumed, open: Estimate3 differs from Estimate")
			}
		}
	}
	if !wideForm(&a.summary) {
		t.Fatal("a cell resumed past 2³² ticks from its first start kept the narrow form")
	}
	checkAgainstRef(t, "resumed", a.Seal(), true)
	checkAtArrivals(t, "resumed", a.Estimate, ts, gamma)
}

// TestWideCellInABlock: a block of narrow and wide cells decodes each into
// its form; the wide cell's starts leave the shared array, and appending to
// any decoded cell leaves its neighbours' answers alone.
func TestWideCellInABlock(t *testing.T) {
	const gamma = 16.0
	nano, _ := longRunStream(1.7e18, 4)
	narrow := spreadStream(1.7e18+1<<40, 1<<20, 4)
	cells := []Builder{*buildPBE2(t, narrow, gamma), *buildPBE2(t, nano, gamma), *buildPBE2(t, narrow, gamma)}
	Lay(cells) // as the decoder lays them
	maxT := narrow[len(narrow)-1]
	data := encodeBlock(t, cells, maxT)
	got := make([]Builder, len(cells))
	if _, err := DecodeBlock(binenc.NewReader(data), got, maxT); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], cells[i]) {
			t.Fatalf("cell %d decoded as\n%+v, encoded from\n%+v", i, &got[i], &cells[i])
		}
		checkAnswers(t, "decoded", &got[i].summary, i == 1)
	}
	for i := range got {
		refs := make([]refSummary, len(got))
		for j := range got {
			refs[j] = refOf(&got[j].summary)
		}
		got[i].Append(maxT + 1<<33)
		got[i].Finish()
		for j := range got {
			if j == i {
				continue
			}
			for _, p := range refProbes(refs[j]) {
				if !sameFloat(got[j].Estimate(p), refs[j].estimate(p)) {
					t.Fatalf("appending to cell %d moved cell %d's answer at %d", i, j, p)
				}
			}
		}
	}
	checkAnswers(t, "narrow, appended past 2³²", &got[0].summary, true)
}
