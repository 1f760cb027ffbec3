package pbe2

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"histburst/internal/binenc"
)

// blockCells gathers every kind of cell a level can hold under one gamma:
// built, empty, with out-of-order arrivals, with segments too long for a
// 32-bit slot, merged, and downsampled (whose own gamma is the block's),
// laid as one level, as a decoded block lays them.
func blockCells(t testing.TB, gamma float64) (cells []Builder, maxT int64) {
	t.Helper()
	add := func(b *Builder) {
		b.Finish()
		cells = append(cells, *b)
		if b.count > 0 && b.lastT > maxT {
			maxT = b.lastT
		}
	}
	empty := func() *Builder {
		b, err := New(gamma)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	add(buildPBE2(t, randomTimestamps(11, 2000, 3), gamma))
	add(empty())
	disordered := buildPBE2(t, randomTimestamps(12, 300, 40), gamma)
	disordered.Append(5)
	disordered.Append(7)
	add(disordered)
	for i := 0; i < 9; i++ { // an empty stretch across a bitmap byte boundary
		add(empty())
	}
	long, _ := longRunStream(1.7e18, 4)
	add(buildPBE2(t, long, gamma))
	merged, err := MergeFinished(sealed(threeParts(t, gamma)...))
	if err != nil {
		t.Fatal(err)
	}
	add(merged)
	fx := buildDSFixture(t, 5, 3, 2, 400, gamma/4)
	ds, err := Downsample(fx.parts, gamma, 4)
	if err != nil {
		t.Fatal(err)
	}
	add(ds)
	add(buildPBE2(t, []int64{-90, -90, -40}, gamma)) // before time zero
	add(empty())
	if got := countLong(&cells[12]); got <= 0 {
		t.Fatal("fixture: no segment too long for a 32-bit slot")
	}
	Lay(cells)
	return cells, maxT
}

// sealedCells seals cells and returns their summaries.
func sealedCells(cells []Builder) []*Summary {
	out := make([]*Summary, len(cells))
	for i := range cells {
		out[i] = cells[i].Seal()
	}
	return out
}

func encodeBlock(t testing.TB, cells []Builder, maxT int64) []byte {
	t.Helper()
	var w binenc.Writer
	if err := EncodeBlock(&w, sealedCells(cells), maxT); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// oneCell stores cells[0] as a one-cell block written against its frontier —
// the form a single-event summary is saved in — and decodes it back, holding
// the block to end where the decoder stops. The cell is sealed first.
func oneCell(t testing.TB, cells []Builder) (back *Builder, data []byte) {
	t.Helper()
	data = encodeBlock(t, cells[:1], cells[0].Frontier())
	got := make([]Builder, 1)
	r := binenc.NewReader(data)
	if _, err := DecodeBlock(r, got, cells[0].Frontier()); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return &got[0], data
}

// TestMarshalRoundTrip: a summary stored as a one-cell block decodes to the
// summary in every field and encodes to the same bytes again.
func TestMarshalRoundTrip(t *testing.T) {
	ts := randomTimestamps(11, 2000, 3)
	b := buildPBE2(t, ts, 3)
	got, data := oneCell(t, []Builder{*b})
	if !reflect.DeepEqual(*got, *b) {
		t.Fatalf("decoded as\n%+v, encoded from\n%+v", got, b)
	}
	for q := int64(0); q <= ts[len(ts)-1]+5; q += 3 {
		if got.Estimate(q) != b.Estimate(q) {
			t.Fatalf("estimate differs at t=%d: %v vs %v", q, got.Estimate(q), b.Estimate(q))
		}
	}
	if again := encodeBlock(t, []Builder{*got}, got.Frontier()); !bytes.Equal(again, data) {
		t.Fatal("the decoded summary encodes to other bytes")
	}
}

func TestMarshalFinishesOpenWindow(t *testing.T) {
	cells, _ := NewCells(1, 2)
	for _, v := range []int64{1, 5, 9, 14} {
		cells[0].Append(v)
	}
	// No Finish: the Seal that hands the cell to EncodeBlock closes the window.
	got, _ := oneCell(t, cells)
	if cells[0].win != nil {
		t.Fatal("the encoded cell was left open")
	}
	if est := got.Estimate(14); est != 4 {
		t.Fatalf("Estimate(14) = %v, want 4", est)
	}
	// Appending continues.
	got.Append(30)
	got.Finish()
	if got.Count() != 5 || got.Estimate(30) != 5 {
		t.Fatalf("append after decode broken: %d %v", got.Count(), got.Estimate(30))
	}
}

func TestMarshalEmpty(t *testing.T) {
	b, _ := New(4)
	got, data := oneCell(t, []Builder{*b})
	if got.Count() != 0 || got.Estimate(10) != 0 || got.Gamma() != 4 || !reflect.DeepEqual(*got, *b) {
		t.Fatal("empty round trip broken")
	}
	if want := 4 + 8 + 1 + 1; len(data) != want {
		t.Fatalf("an empty summary takes %d bytes, want the block's magic, γ, sum and presence bit: %d", len(data), want)
	}
}

// TestBlockRoundTrip: a block decodes to cells equal to the ones encoded in
// every field, re-encodes to the same bytes, and leaves the reader exactly at
// its end.
func TestBlockRoundTrip(t *testing.T) {
	cells, maxT := blockCells(t, 8)
	data := encodeBlock(t, cells, maxT)
	r := binenc.NewReader(append(data[:len(data):len(data)], "next"...))
	got := make([]Builder, len(cells))
	if _, err := DecodeBlock(r, got, maxT); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 4 {
		t.Fatalf("decoder left %d bytes, want the 4 that follow the block", r.Remaining())
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], cells[i]) {
			t.Errorf("cell %d decoded as\n%+v, encoded from\n%+v", i, &got[i], &cells[i])
		}
		if b := &got[i]; cap(b.cols) != len(b.cols) || b.room != b.n || b.wide != nil && cap(b.wide.segs) != len(b.wide.segs) {
			t.Errorf("cell %d holds columns with room to spare (cap %d for %d bytes, room %d for %d segments): an append would write into its neighbour's",
				i, cap(b.cols), len(b.cols), b.room, b.n)
		}
	}
	if again := encodeBlock(t, got, maxT); !bytes.Equal(again, data) {
		t.Fatal("the decoded cells encode to other bytes")
	}
	// The empty cells cost their bit and nothing else: the same block
	// without them is shorter by the bitmap alone.
	var dense []Builder
	for _, c := range cells {
		if c.count > 0 {
			dense = append(dense, c)
		}
	}
	if extra := len(data) - len(encodeBlock(t, dense, maxT)); extra != (len(cells)+7)/8-(len(dense)+7)/8 {
		t.Errorf("%d empty cells cost %d bytes, want the bitmap's %d", len(cells)-len(dense), extra, (len(cells)+7)/8-(len(dense)+7)/8)
	}
}

// TestBlockAppendAfterDecode: the decoded cells share their arrays, and an
// append that grows one must neither disturb its neighbours nor differ from
// the same append on a cell that was never stored.
func TestBlockAppendAfterDecode(t *testing.T) {
	const gamma = 2
	streams := [][]int64{
		randomTimestamps(21, 500, 4),
		randomTimestamps(22, 500, 9),
		randomTimestamps(23, 500, 2),
	}
	build := func() (cells []Builder, maxT int64) {
		for _, ts := range streams {
			cells = append(cells, *buildPBE2(t, ts, gamma))
			maxT = max(maxT, ts[len(ts)-1])
		}
		Lay(cells)
		return cells, maxT
	}
	twins, _ := build()
	cells, maxT := build()
	got := make([]Builder, len(cells))
	if _, err := DecodeBlock(binenc.NewReader(encodeBlock(t, cells, maxT)), got, maxT); err != nil {
		t.Fatal(err)
	}
	before := got[2].Segments()
	// Grow the middle cell well past its range of the shared arrays.
	for i, v := range randomTimestamps(24, 2000, 6) {
		got[1].Append(maxT + v)
		twins[1].Append(maxT + v)
		if i == 700 { // and across a Finish, as a reopened store does
			got[1].Finish()
			twins[1].Finish()
		}
	}
	got[1].Finish()
	twins[1].Finish()
	if got[1].NumSegments() <= len(before) {
		t.Fatal("fixture: the appends closed no segment")
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], twins[i]) {
			t.Errorf("cell %d after appending to cell 1:\n%+v, never stored:\n%+v", i, &got[i], &twins[i])
		}
	}
}

func TestEncodeBlockRefusesMixedCells(t *testing.T) {
	a := buildPBE2(t, []int64{1, 5, 9}, 2)
	for name, c := range map[string]struct {
		cells []Builder
		want  string
	}{
		"another gamma": {[]Builder{*a, *buildPBE2(t, []int64{2}, 3)}, "cell 1 has gamma 3"},
		"no cells":      {nil, "zero cells"},
	} {
		var w binenc.Writer
		if err := EncodeBlock(&w, sealedCells(c.cells), 9); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, c.want)
		}
	}
}

// rawCell is one present cell of a forged block, column by column.
type rawCell struct {
	count, open, tail, outOfOrder uint64
	first                         int64 // first start − maxT
	segs                          []rawSegment
	lines                         map[int][]byte // segment → its slope's and value's bytes as stored, in place of a and y
	escape                        map[int]bool   // segments written escaped whatever their lines
	flipFloat                     bool           // the float bit the reverse of the cell's forms
	aw                            int            // with ownAW, the slope width declared and written
	ownAW                         bool           // declare aw, not the least width the cell's slopes need
}

// rawSegment is a segment as the block stores it; gap is ignored for a
// cell's first.
type rawSegment struct {
	gap, length uint64
	a, y        float64
}

// rawBlock writes the block format around the given columns as they are: what
// a file with a valid checksum can carry. Each record is in the form refForms
// replays for its cell, but where the cell says otherwise.
func rawBlock(outOfOrder uint64, bitmap []byte, cells []rawCell) []byte {
	var w binenc.Writer
	w.Uint32(blockMagic)
	w.Float64(2)
	w.Uvarint(outOfOrder)
	for _, m := range bitmap {
		w.Byte(m)
	}
	for _, c := range cells {
		w.Uvarint(uint64(len(c.segs)))
	}
	for _, c := range cells {
		w.Uvarint(c.count)
	}
	for _, c := range cells {
		w.Uvarint(c.open)
	}
	for _, c := range cells {
		w.Uvarint(c.tail)
	}
	if outOfOrder != 0 {
		for _, c := range cells {
			w.Uvarint(c.outOfOrder)
		}
	}
	forms, floats, widths := make([][]int, len(cells)), make([]bool, len(cells)), make([]int, len(cells))
	for ci, c := range cells {
		segs := make([]Segment, len(c.segs))
		var start int64 // relative to the cell's first start
		for i, s := range c.segs {
			if i > 0 {
				start = segs[i-1].End + int64(s.gap)
			}
			segs[i] = Segment{A: s.a, Y: s.y, Start: start, End: start + int64(s.length)}
		}
		forms[ci], floats[ci] = refForms(segs)
		floats[ci] = floats[ci] != c.flipFloat
		widths[ci] = refSlopeWidth(segs, forms[ci])
		if c.ownAW {
			widths[ci] = c.aw
		}
	}
	writeBits(&w, floats)
	writeWidths(&w, widths)
	for ci, c := range cells {
		for i, s := range c.segs {
			if i == 0 {
				w.Varint(c.first)
			} else {
				w.Uvarint(s.gap)
			}
			w.Uvarint(s.length)
			if raw, ok := c.lines[i]; ok {
				for _, b := range raw {
					w.Byte(b)
				}
			} else {
				writeLine(&w, s.a, s.y, widths[ci], forms[ci][i] == escapedValue || c.escape[i], floats[ci])
			}
		}
	}
	return w.Bytes()
}

// writeWidths writes a 2-bit slope width code a present cell, the i-th at
// bits 2(i%4) and 2(i%4)+1 of byte i/4.
func writeWidths(w *binenc.Writer, widths []int) {
	for lo := 0; lo < len(widths); lo += 4 {
		var b byte
		for i, aw := range widths[lo:min(lo+4, len(widths))] {
			b |= map[int]byte{0: 0, 2: 1, 3: 2, 4: 3}[aw] << (2 * i)
		}
		w.Byte(b)
	}
}

// floatLine is a record's slope and value in a float cell: the float32
// slope's top aw bytes, then y as a float64.
func floatLine(aw int, a, y float64) []byte {
	var w binenc.Writer
	writeLine(&w, a, y, aw, false, true)
	return w.Bytes()
}

// gridLine is a record's slope and value in a grid cell: the top aw bytes
// of the float32 slope bits, then k, any int64, as a varint.
func gridLine(aw int, slope uint32, k int64) []byte {
	var w binenc.Writer
	w.UintN(uint64(slope)>>(32-8*aw), aw)
	w.Varint(k)
	return w.Bytes()
}

// rejectCase is a forged input and the words its refusal must name.
type rejectCase struct {
	name, want string
	data       []byte
}

// expectRejected decodes each case as a two-cell block against maxT and holds
// the decoder to refusing it with an error that starts with prefix and names
// the case's words.
func expectRejected(t *testing.T, maxT int64, prefix string, cases []rejectCase) {
	t.Helper()
	for _, tc := range cases {
		cells := make([]Builder, 2)
		r := binenc.NewReader(tc.data)
		_, err := DecodeBlock(r, cells, maxT)
		if err == nil {
			err = r.Close()
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want one starting %q and naming %q", tc.name, err, prefix, tc.want)
		}
	}
}

// goodCell is a sound present cell of two segments, 40..50 and 53..58 against
// a maxT of 100; with returns it as a one-cell column set after edit.
var goodCell = rawCell{count: 7, open: 2, first: -60, segs: []rawSegment{{0, 10, 0.5, 1}, {3, 5, 0, 6}}}

func with(edit func(c *rawCell)) []rawCell {
	c := goodCell
	c.segs = append([]rawSegment(nil), goodCell.segs...)
	edit(&c)
	return []rawCell{c}
}

// TestDecodeBlockRejects: the decoder holds a block to what the encoder
// writes. The per-cell format took every one of the first five under a valid
// checksum — count, prevF, lastT and the two flags were stored side by side
// and never compared.
func TestDecodeBlockRejects(t *testing.T) {
	const maxT = 100
	good := goodCell
	expectRejected(t, maxT, "", []rejectCase{
		{"open corner larger than the count", "9 arrivals in its open corner and 7 in all",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.open = 9 }))},
		{"present without arrivals", "present with count 0",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.count, c.open = 0, 0 }))},
		{"present without segments", "arrivals and no segments",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs = nil }))},
		{"last segment ends past the level", "past the level's last timestamp 100",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].length = 50 }))},
		{"frontier past the level", "past the level's last timestamp 100",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.tail = 43 }))},
		{"frontier wraps int64", "past the level's last timestamp",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.tail = math.MaxInt64 }))},
		{"start wraps int64", "starts past the end of time",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].gap = math.MaxInt64 }))},
		{"end wraps int64", "segment 1 ends past the end of time",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].length = math.MaxInt64 }))},
		{"length wraps int64", "segment 1 has a negative length",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].length = math.MaxUint64 - 2 }))},
		{"more segments than bytes", "exceeds",
			append(rawBlock(0, []byte{1}, nil), 0xff, 0xff, 0x03)},
		{"presence bit past the last cell", "presence bits set past the last cell",
			rawBlock(0, []byte{0b101}, []rawCell{good, good})},
		{"out-of-order column under a zero sum", "trailing",
			append(rawBlock(0, []byte{1}, with(func(*rawCell) {})), 0)},
		{"out-of-order column short of the sum", "fewer than the block's 5",
			rawBlock(5, []byte{1}, with(func(c *rawCell) { c.outOfOrder = 3 }))},
		{"out-of-order column past the sum", "more than the block's 5",
			rawBlock(5, []byte{1}, with(func(c *rawCell) { c.outOfOrder = 6 }))},
		{"an escape marker on a line its cell keeps", "segment 1 is escaped, and its cell keeps its line",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.escape = map[int]bool{1: true} }))},
		{"a line its cell escapes", "segment 0 is a line its cell escapes",
			rawBlock(0, []byte{1}, with(func(c *rawCell) {
				c.segs[0].y, c.segs[1].y = 1+1.0/3, 1<<56
				c.lines = map[int][]byte{0: floatLine(2, 0.5, 1+1.0/3)}
			}))},
		{"a float bit on a cell whose forms keep to the grid", "cell 0 holds float64 values, and its segments' forms keep to the grid",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.flipFloat = true }))},
		{"a grid value its cell takes to float64", "segment 1 holds a grid value its cell takes to float64",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.lines = map[int][]byte{1: gridLine(2, 0, math.MaxInt64)} }))},
		{"a grid value no float64 holds", "segment 1 holds 9007199254740993 units of 2⁻⁸ count, which no float64 holds",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.lines = map[int][]byte{1: gridLine(2, 0, 1<<53+1)} }))},
		{"−0 in a float cell", "segment 0 holds −0, where a cell holds +0",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[0].y, c.segs[1].y = math.Copysign(0, -1), 1<<56 }))},
		{"a slope width wider than the cell's slopes need", "cell 0 stores its slopes in 3 bytes, and they need 2",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.aw, c.ownAW = 3, true }))},
		{"slopes of 4 bytes in a cell whose slopes need none", "cell 0 stores its slopes in 4 bytes, and they need 0",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[0].a, c.aw, c.ownAW = 0, 4, true }))},
	})

	// A float bit past the present cells: the sound one-cell block's float
	// byte, behind the header, the bitmap and four one-byte columns.
	floatAt := 4 + 8 + 1 + 1 + 4
	pastP := rawBlock(0, []byte{1}, []rawCell{good})
	if pastP[floatAt] != 0 {
		t.Fatalf("fixture: float byte %#x", pastP[floatAt])
	}
	pastP[floatAt] = 0b10
	expectRejected(t, maxT, "", []rejectCase{{"float bits set past the present cells", "float bits set past the 1 present cells", pastP}})

	// Slope bits past the width: a width code for a second present cell, in
	// the byte behind the float byte, or a slope record's bytes past the
	// cell's width, which read as the record's value and the next record.
	pastW := rawBlock(0, []byte{1}, []rawCell{good})
	if pastW[floatAt+1] != 1 {
		t.Fatalf("fixture: width byte %#x, want the code of 2-byte slopes", pastW[floatAt+1])
	}
	pastW[floatAt+1] |= 0b0100
	expectRejected(t, maxT, "", []rejectCase{{"width bits set past the present cells", "slope width bits set past the 1 present cells", pastW}})
	wideSlope := rawBlock(0, []byte{1}, with(func(c *rawCell) {
		c.lines = map[int][]byte{1: append(gridLine(4, 0, 6*256)[:4:4], gridLine(2, 0, 6*256)[2:]...)}
	}))
	expectRejected(t, maxT, "", []rejectCase{{"a 4-byte slope in a cell of 2-byte slopes", "trailing", wideSlope}})

	// Each count is held to the bytes that remain when it is read; so must
	// their sum be. Two cells each claiming as many segments as the bytes
	// could hold alone:
	two := rawBlock(0, []byte{3}, []rawCell{good, good})
	head := 4 + 8 + 1 + 1
	per := (len(two) - head - 2) / minSegmentBytes // what one count may claim
	forged := append(append([]byte(nil), two[:head]...), byte(per), byte(per))
	forged = append(forged, two[head+2:]...)
	if _, err := DecodeBlock(binenc.NewReader(forged), make([]Builder, 2), maxT); err == nil || !strings.Contains(err.Error(), "segments exceed") {
		t.Errorf("two cells claiming %d segments each in %d bytes: %v", per, len(two), err)
	}

	// The fixture itself is sound, and an overlong varint is all it takes to
	// refuse it: 0x80 0x00 decodes as 0, and is not what the encoder writes.
	sound := rawBlock(0, []byte{1}, []rawCell{good})
	cells := make([]Builder, 2)
	if _, err := DecodeBlock(binenc.NewReader(sound), cells, maxT); err != nil {
		t.Fatalf("sound block refused: %v", err)
	}
	if s := cells[0].Segments(); len(s) != 2 || s[0] != (Segment{0.5, 1, 40, 50}) || s[1] != (Segment{0, 6, 53, 58}) ||
		cells[0].lastT != 58 || cells[0].prevF != 5 || cells[0].win != nil || cells[1].count != 0 {
		t.Fatalf("sound block decoded as %+v, %+v", cells[0], cells[1])
	}
	at := 4 + 8 // the out-of-order sum, a zero
	overlong := append(append(append([]byte(nil), sound[:at]...), 0x80, 0x00), sound[at+1:]...)
	if _, err := DecodeBlock(binenc.NewReader(overlong), cells, maxT); err == nil || !strings.Contains(err.Error(), "shortest form") {
		t.Errorf("overlong varint: %v", err)
	}
	for cut := 0; cut < len(sound); cut++ {
		if _, err := DecodeBlock(binenc.NewReader(sound[:cut]), cells, maxT); err == nil {
			t.Fatalf("cut=%d accepted", cut)
		}
	}
}

// TestUnmarshalRejectsGarbage: bytes that are not a block — nothing, some
// text, a retired per-summary blob, the previous block generation, or any cut
// of a built summary's block — are refused.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	expectRejected(t, 100, "", []rejectCase{
		{"empty input", "truncated uint32 at offset 0", nil},
		{"not a block", "bad magic", []byte("nope")},
		{"a per-summary blob", "bad magic", []byte("PB2\x01xx")},
		{"an earlier generation", "bad magic", []byte("P2B\x01 and so on, and so on")},
		{"the previous generation", "bad magic", []byte("P2B\x02 and so on, and so on")},
	})
	src := buildPBE2(t, randomTimestamps(3, 300, 3), 2)
	built := encodeBlock(t, []Builder{*src}, src.Frontier())
	cells := make([]Builder, 1)
	for cut := 0; cut < len(built); cut += 5 {
		if _, err := DecodeBlock(binenc.NewReader(built[:cut]), cells, src.Frontier()); err == nil {
			t.Fatalf("cut=%d of %d accepted", cut, len(built))
		}
	}
}

// TestUnmarshalRejectsUnsearchable: the decoder holds a summary to the
// builder's own invariants, because the search kernels assume them: starts in
// order, lengths not below zero, no overlaps, finite coefficients.
func TestUnmarshalRejectsUnsearchable(t *testing.T) {
	const maxT = 100
	expectRejected(t, maxT, "pbe2: ", []rejectCase{
		{"negative length", "segment 0 has a negative length",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[0].length = negative(1) }))},
		{"descending starts, End < Start", "segment 0 has a negative length",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[0].length, c.segs[1].gap = negative(5), negative(20) }))},
		{"descending starts", "segment 1 starts before its predecessor ends",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].gap = negative(15) }))},
		{"End past the next Start", "segment 1 starts before its predecessor ends",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].gap = negative(3) }))},
		{"NaN slope", "segment 0 has non-finite coefficients",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[0].a = math.NaN() }))},
		{"infinite intercept", "segment 1 has non-finite coefficients",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].y = math.Inf(-1) }))},
		{"NaN slope in a grid cell", "segment 0 has non-finite coefficients",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.aw, c.ownAW, c.lines = 4, true, map[int][]byte{0: gridLine(4, 0x7fc00001, 256)} }))},
		{"infinite slope in a grid cell", "segment 1 has non-finite coefficients",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.lines = map[int][]byte{1: gridLine(2, 0xff800000, 6*256)} }))},
		{"a NaN value", "segment 1 has non-finite coefficients",
			rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].y = math.NaN() }))},
	})

	// What the builder can legitimately emit still decodes: a successor may
	// start on its predecessor's End, two segments may share a Start when the
	// first is a single instant, and starts may be negative.
	edges := rawCell{count: 50, tail: 30, first: -120, segs: []rawSegment{{0, 0, 0, 1}, {0, 24, 0.5, 3}, {0, 5, 0, 7}, {21, 0, 0, 8}}}
	cells := make([]Builder, 2)
	if _, err := DecodeBlock(binenc.NewReader(rawBlock(0, []byte{1}, []rawCell{edges})), cells, maxT); err != nil {
		t.Fatalf("builder-shaped cell refused: %v", err)
	}
	want := []Segment{{0, 1, -20, -20}, {0.5, 3, -20, 4}, {0, 7, 4, 9}, {0, 8, 30, 30}}
	if got := cells[0].Segments(); !reflect.DeepEqual(got, want) || cells[0].lastT != 60 {
		t.Fatalf("builder-shaped cell decoded as %+v ending at %d, want %+v ending at 60", got, cells[0].lastT, want)
	}
}

// formBlock is a two-cell block of one present cell, against a maxT of 100,
// whose records take one form: decoded, the cell holds float64 values or
// not and esc escaped segments — or, refused, the block is one no cell
// writes.
type formBlock struct {
	name    string
	data    []byte
	float   bool
	esc     int
	refused bool
}

// recordForms returns a formBlock a record form, and one of a −0 in a
// float cell, which a cell holds as +0.
func recordForms() []formBlock {
	long := rawCell{count: 7, open: 2, first: -(1<<32 + 60), segs: []rawSegment{{0, 1 << 32, 0.5, 1}, {3, 5, 0, 6}}}
	return []formBlock{
		{name: "a grid value past int32", data: rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].y = 1<<24 + 0.5 }))},
		{name: "a float64 cell", data: rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].y = 1 << 56 })), float: true},
		{name: "an escaped slope", data: rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[0].a = 1.0 / 3 })), esc: 1},
		{name: "an escaped value off the grid", data: rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[1].y = 6.1 })), esc: 1},
		{name: "a segment of 2³² ticks", data: rawBlock(0, []byte{1}, []rawCell{long})},
		{name: "−0 in a float cell", data: rawBlock(0, []byte{1}, with(func(c *rawCell) { c.segs[0].y, c.segs[1].y = math.Copysign(0, -1), 1<<56 })), refused: true},
	}
}

// TestBlockRecordForms: a block of each record form decodes to a cell that
// holds its segments in that form and re-encodes to the same bytes; the
// −0 a float cell never holds is refused.
func TestBlockRecordForms(t *testing.T) {
	for _, tc := range recordForms() {
		cells := make([]Builder, 2)
		r := binenc.NewReader(tc.data)
		_, err := DecodeBlock(r, cells, 100)
		if err == nil {
			err = r.Close()
		}
		switch {
		case tc.refused:
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
			continue
		case err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		}
		if b := &cells[0]; b.float != tc.float || b.escaped() != tc.esc {
			t.Errorf("%s: decoded with float64 values %v and %d escaped, want %v and %d", tc.name, b.float, b.escaped(), tc.float, tc.esc)
		}
		if again := encodeBlock(t, cells, 100); !bytes.Equal(again, tc.data) {
			t.Errorf("%s: re-encodes to %x, was %x", tc.name, again, tc.data)
		}
	}
}

// widthCells are four sound cells whose slopes need 0, 2, 3 and 4 bytes,
// and a fifth whose one escaped segment is held among 2-byte slopes:
// goodCell under the slopes of packedSlopes, and with its first line off
// the float32s.
func widthCells() []rawCell {
	var cells []rawCell
	for _, a := range [...]float64{0, 0.5, 0.5 + 1.0/(1<<16), 0.5 + 1.0/(1<<24), 1.0 / 3} {
		cells = append(cells, with(func(c *rawCell) { c.segs[0].a = a })[0])
	}
	return cells
}

// TestBlockSlopeWidths: a block of widthCells decodes to cells of slopes at
// 0, 2, 3 and 4 bytes and an escaped segment among 2-byte slopes, and
// re-encodes to the same bytes.
func TestBlockSlopeWidths(t *testing.T) {
	data := rawBlock(0, []byte{0x1f}, widthCells())
	cells := make([]Builder, 5)
	r := binenc.NewReader(data)
	if _, err := DecodeBlock(r, cells, 100); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint8{0, 2, 3, 4, 2} {
		if got := cells[i].aw(); got != want {
			t.Errorf("cell %d holds its slopes in %d bytes, want %d", i, got, want)
		}
	}
	if cells[4].escaped() != 1 {
		t.Errorf("cell 4 escaped %d segments, want 1", cells[4].escaped())
	}
	if again := encodeBlock(t, cells, 100); !bytes.Equal(again, data) {
		t.Errorf("re-encodes to %x, was %x", again, data)
	}
}

// negative is -n as the two's-complement uvarint a forged gap or length
// carries.
func negative(n int64) uint64 { return uint64(-n) }

// TestBlockOfLeastRecordsAllocates: a block of 3-byte records, which a
// list of 32 bytes a segment would take to 11 times its size, decodes
// within FuzzPBE2CellBlock's bound on what a decode allocates.
func TestBlockOfLeastRecordsAllocates(t *testing.T) {
	data := rawBlock(0, []byte{1}, []rawCell{leastRecords(20_000)})
	cells := make([]Builder, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBlock(binenc.NewReader(data), cells, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(5*len(data)+1<<16); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), got, limit)
	}
}

// leastRecords is a cell of n records of the least size, 3 bytes: a one-
// byte gap and length, no slope bytes and a one-byte value at Start, its
// last segment ending just before a level's maxT of 0.
func leastRecords(n int) rawCell {
	c := rawCell{count: uint64(2 * n), tail: 1, first: -int64(2 * n), segs: make([]rawSegment, n)}
	for i := range c.segs {
		c.segs[i] = rawSegment{gap: 1, length: 1}
	}
	return c
}

// TestBlockRereadMatchesList: DecodeBlock fills a level's cells alike from
// its list of segments and from the records read again, on blocks of every
// record form and slope width, of the least records and of built cells.
func TestBlockRereadMatchesList(t *testing.T) {
	type block struct {
		name  string
		cells int
		maxT  int64
		data  []byte
	}
	built, builtT := blockCells(t, 8)
	steer, steerT := blockCells(t, 32)
	blocks := []block{
		{"built", len(built), builtT, encodeBlock(t, built, builtT)},
		{"under 4γ", len(steer), steerT, encodeBlock(t, steer, steerT)},
		{"slope widths", 5, 100, rawBlock(0, []byte{0x1f}, widthCells())},
		{"least records", 1, 0, rawBlock(0, []byte{1}, []rawCell{leastRecords(300)})},
	}
	for _, tc := range recordForms() {
		blocks = append(blocks, block{tc.name, 2, 100, tc.data})
	}
	defer func(b int) { listRecordBytes = b }(listRecordBytes)
	for _, tc := range blocks {
		var got [2][]Builder
		var errs [2]error
		for i, least := range []int{1, math.MaxInt} {
			listRecordBytes = least
			got[i] = make([]Builder, tc.cells)
			_, errs[i] = DecodeBlock(binenc.NewReader(tc.data), got[i], tc.maxT)
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("%s: listed %v, read again %v", tc.name, errs[0], errs[1])
		}
		if errs[0] == nil && !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: listed\n%+v\nread again\n%+v", tc.name, got[0], got[1])
		}
	}
}
