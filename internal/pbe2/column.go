package pbe2

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// A cell's closed segments are packed in one byte array, cols: the search
// key as a column, then the rest of each segment as a row, room segments of
// each, every field frame-of-reference packed at the width in bytes of the
// widest value the cell holds in it:
//
//	start   room·sw bytes    Start − firstStart: the search key
//	rows    from rowAt, room rows of lw + yw + aw bytes:
//	  length  lw bytes       End − Start
//	  y       yw bytes       the value at Start: in a grid cell its multiple
//	                         of 2⁻⁸ count less yBase, the least of them; in a
//	                         cell of float64 values its bits; for an escaped
//	                         segment its index in the wide form
//	  slope   aw bytes       the top aw bytes of a float32, whose other bytes
//	                         are zero: aw is 0, 2, 3 or 4 (slopeWidth);
//	                         escSlope, a NaN, for an escaped segment
//
// A field is little-endian, 0 to 8 bytes, and read by one 8-byte load from
// its first byte, masked — but a y field by the length's load, shifted down
// past the length, when the two fit in its 8 bytes (yAt), and a slope by
// one 4-byte load, shifted up so that the bytes past it fall off. colSize
// leaves the few bytes past the last row that its loads read. Whole bytes
// keep a read to a load and a mask: bit widths would save some 2 bits a
// field, and put a shift and about half as much again into each probe of a
// search. A row keeps what a
// query reads of a segment once it has found it in one cache line, or two.
// A Builder's columns have room for more segments than they hold, and are
// rewritten (relayout) when an append outgrows their room or a width; a
// sealed cell's room is its segment count and its columns are exactly
// colSize long.
//
// A sealed level's cells lie end to end in one array (layLevel): each
// cell's columns start where its predecessor's rows end, so the bytes its
// loads read past its last row are its successor's first ones, which the
// loads mask off, and only the level's last cell has slack of its own. The
// functions in this file are the only readers and writers of cols.

// escSlope is an escaped segment's slope field: a NaN, which no stored line
// has. Its low two bytes are zero, so a cell of 2-byte slopes holds it.
const escSlope = 0x7fc00000

// slopeWidth returns the bytes a slope field needs to hold a float32's bits
// a: its bytes up to the last that is not zero, and 2 for a lone top byte.
//
//histburst:noalloc
func slopeWidth(a uint32) uint8 {
	w := 4 - uint8(bits.TrailingZeros32(a)>>3)
	if w == 1 {
		return 2
	}
	return w
}

// yAt returns where in a row of lw-byte lengths and yw-byte values the
// 8-byte load of the value starts: at the row's start, the length's own
// load, when the two fields fit in it, else at the value.
func yAt(lw, yw uint8) uint8 {
	if lw+yw <= 8 {
		return 0
	}
	return lw
}

// slopeShift is how far a slope field of aw bytes sits below its float32's
// top.
//
//histburst:noalloc
func slopeShift(aw uint8) uint { return uint(32-8*aw) & 63 }

// width returns the bytes a field needs to hold v.
//
//histburst:noalloc
func width(v uint64) uint8 { return uint8(bits.Len64(v)+7) >> 3 }

// masks keep the low w bytes of a word, w ≤ 8: a load where a computed
// mask would cost the compiler's guard against a shift of 64.
var masks = [16]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, 1<<64 - 1}

// mask keeps the low w bytes of a word.
//
//histburst:noalloc
func mask(w uint8) uint64 { return masks[w&15] }

// colSize returns the bytes the columns take with room for room segments at
// widths sw, lw, yw and aw: the starts and the rows, and past the last row
// what its 8-byte loads of the length and y and its 4-byte load of the slope
// read. That slack, at most 8 bytes, is a standalone cell's own; in a laid
// level it is its successor's first bytes (layLevel).
func colSize(room int, sw, lw, yw, aw uint8) int {
	if room == 0 {
		return 0
	}
	last := room*int(sw) + (room-1)*(int(lw)+int(yw)+int(aw))
	return last + max(int(yAt(lw, yw))+8, int(lw)+int(yw)+4)
}

// payload returns the bytes a sealed cell's segments take in its columns,
// the starts and the rows, without the slack: where a laid level's next cell
// starts.
//
//histburst:noalloc
func (s *Summary) payload() int { return s.n * (int(s.sw) + int(s.stride)) }

// levelSize returns the bytes a level's cells take laid end to end: as far
// as the furthest of their loads reaches.
func levelSize(cells []Builder) int {
	off, size := 0, 0
	for i := range cells {
		s := &cells[i]
		size = max(size, off+colSize(s.n, s.sw, s.lw, s.yw, s.aw()))
		off += s.payload()
	}
	return size
}

// layLevel lays a level's cells, each laid out for its n segments, in cols,
// levelSize long: it hands each cell that holds segments, in order, its
// columns, exactly colSize long, starting where its predecessor's rows end,
// to put, which moves or writes the cell's segments into them. A cell holds
// its columns as a full-slice range, so an append after laying, which finds
// no room, copies the cell's segments out (appendSegment) instead of writing
// over its successor's. Lay and DecodeBlock both lay through it, so a level
// built and the same level decoded hold the same bytes.
func layLevel(cells []Builder, cols []byte, put func(b *Builder, cols []byte)) {
	off := 0
	for i := range cells {
		b := &cells[i]
		if b.n == 0 {
			b.cols = nil
			continue
		}
		size := colSize(b.n, b.sw, b.lw, b.yw, b.aw())
		put(b, cols[off:off+size:off+size])
		off += b.payload()
	}
}

// Lay seals a level's cells — a sketch's d·w — and lays their closed
// segments end to end in one array, which it returns: each cell's columns
// are moved out of the room-ful ones it was built in, without a copy of
// their own in between. The array is the cells' until an append, which
// moves the cell it reaches out of it; Laid tells whether they still lie in
// it.
func Lay(cells []Builder) []byte {
	for i := range cells {
		b := &cells[i]
		if b.win != nil {
			b.finishWindow()
		}
		if w := b.wide; w != nil {
			w.segs = clipped(w.segs)
		}
	}
	cols := make([]byte, levelSize(cells))
	layLevel(cells, cols, func(b *Builder, to []byte) {
		from, rowAt, k := b.cols, b.rowAt, b.n*int(b.sw)
		b.setLayout(b.n, b.sw, b.lw, b.yw, b.aw())
		copy(to, from[:k])
		copy(to[k:], from[rowAt:rowAt+b.n*int(b.stride)])
		b.cols = to
	})
	return cols
}

// Laid reports whether cells lie in cols as layLevel lays them: every cell
// sealed, and every one that holds segments with exactly its columns, room
// for its segments and no more, where its predecessor's rows end, cols
// ending where the furthest of their loads reaches.
func Laid(cells []Builder, cols []byte) bool {
	off, size := 0, 0
	for i := range cells {
		b := &cells[i]
		if b.win != nil {
			return false
		}
		if b.n == 0 {
			continue
		}
		n := colSize(b.n, b.sw, b.lw, b.yw, b.aw())
		if b.room != b.n || len(b.cols) != n || cap(b.cols) != n || off+n > len(cols) || &b.cols[0] != &cols[off] {
			return false
		}
		size = max(size, off+n)
		off += b.payload()
	}
	return cols != nil && size == len(cols)
}

// word returns the 8 bytes at o of b.
//
//histburst:noalloc
func word(b []byte, o int) uint64 { return binary.LittleEndian.Uint64(b[o : o+8 : o+8]) }

// field returns the w-byte field at o of b.
//
//histburst:noalloc
func field(b []byte, o int, w uint8) uint64 { return word(b, o) & mask(w) }

// setField ORs v into the field at o of b, which is zero: v has no byte
// past the field's width, so the 8-byte store leaves the fields after it as
// they were.
func setField(b []byte, o int, v uint64) {
	p := b[o : o+8]
	binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)|v)
}

// startOff returns the i-th segment's start less firstStart.
//
//histburst:noalloc
func (s *Summary) startOff(i int) uint64 { return field(s.cols, i*int(s.sw), s.sw) }

// start returns the Start of the i-th closed segment. Its offset may pass
// 2⁶³; the int64 sum wraps to the exact start all the same.
//
//histburst:noalloc
func (s *Summary) start(i int) int64 { return s.firstStart + int64(s.startOff(i)) }

// row returns where the i-th segment's row starts.
//
//histburst:noalloc
func (s *Summary) row(i int) int { return s.rowAt + i*int(s.stride) }

// segLen returns End − Start of the i-th closed segment.
//
//histburst:noalloc
func (s *Summary) segLen(i int) int64 { return int64(field(s.cols, s.row(i), s.lw)) }

// yField returns the i-th segment's y field.
//
//histburst:noalloc
func (s *Summary) yField(i int) uint64 {
	return word(s.cols, s.row(i)+int(s.yAt)) >> (s.ySh & 63) & mask(s.yw)
}

// slopeBits returns the i-th segment's slope as float32 bits.
//
//histburst:noalloc
func (s *Summary) slopeBits(i int) uint32 {
	at := s.row(i) + int(s.lw) + int(s.yw)
	return uint32(uint64(binary.LittleEndian.Uint32(s.cols[at:at+4:at+4])) << (s.aSh & 63))
}

// seg assembles the i-th closed segment from the columns. It and segAt are
// the one reader of the layout: queries, Segments, merge, downsample and the
// cell block go through them, or through the start and length readers.
//
//histburst:noalloc
func (s *Summary) seg(i int) Segment { return s.segAt(i, s.start(i)) }

// segAt is seg for a caller that has the start already: the segment's line
// from its row's slope and y fields, or, when the slope field says so, from
// the wide form.
//
//histburst:noalloc
func (s *Summary) segAt(i int, start int64) Segment {
	o := s.rowAt + i*int(s.stride)
	end := start + int64(field(s.cols, o, s.lw))
	y := word(s.cols, o+int(s.yAt)) >> (s.ySh & 63) & mask(s.yw)
	at := o + int(s.lw) + int(s.yw)
	a := uint32(uint64(binary.LittleEndian.Uint32(s.cols[at:at+4:at+4])) << (s.aSh & 63))
	if a == escSlope {
		e := &s.wide.segs[y]
		return Segment{A: e.a, Y: e.y, Start: start, End: end}
	}
	return Segment{A: float64(math.Float32frombits(a)), Y: s.value(y), Start: start, End: end}
}

// value returns the value at Start a line's y field holds.
//
//histburst:noalloc
func (s *Summary) value(y uint64) float64 {
	if s.float {
		return math.Float64frombits(y)
	}
	return float64(int64(y)+s.yBase) * (1.0 / yUnit)
}

// gridField returns the y field of a line whose value at Start, y, is on
// the grid: its bits in a cell of float64 values, its multiple of 2⁻⁸ less
// the base otherwise. (y·2⁸ is an exact float64 integer, so the float64
// bits are those of the value it reads back as, a zero's sign and all.)
func (s *Summary) gridField(y float64) uint64 {
	k := int64(y * yUnit)
	if s.float {
		return math.Float64bits(float64(k) / yUnit)
	}
	return uint64(k - s.yBase)
}

// put writes the i-th segment's fields into zero fields: the slope's top aw
// bytes, and its other bytes, which are zero, not at all.
func (s *Summary) put(i int, off, length uint64, slope uint32, y uint64) {
	o := s.row(i)
	setField(s.cols, i*int(s.sw), off)
	setField(s.cols, o, length)
	setField(s.cols, o+int(s.yAt), y<<(s.ySh&63))
	p := s.cols[o+int(s.lw)+int(s.yw):][:4]
	binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)|uint32(uint64(slope)>>(s.aSh&63)))
}

// setLayout sets the room and the widths the columns are laid out for, and
// what the readers work out from them: where the rows start, how long one
// is, and where in it the load of a y field starts and how far into the
// load the field does.
func (s *Summary) setLayout(room int, sw, lw, yw, aw uint8) {
	s.room, s.sw, s.lw, s.yw, s.rowAt = room, sw, lw, yw, room*int(sw)
	s.stride, s.aSh, s.yAt = lw+yw+aw, uint8(slopeShift(aw)), yAt(lw, yw)
	s.ySh = (lw - s.yAt) << 3
}

// aw returns the width of the cell's slope fields.
//
//histburst:noalloc
func (s *Summary) aw() uint8 { return s.stride - s.lw - s.yw }

// relayout rewrites the columns with room for room segments at widths sw,
// lw, yw and aw, the grid values less yBase or, when float, as float64
// values: every segment held moves over, its y field recoded.
func (s *Summary) relayout(room int, sw, lw, yw, aw uint8, yBase int64, float bool) {
	old := *s
	s.cols = nil
	if room > 0 {
		s.cols = make([]byte, colSize(room, sw, lw, yw, aw))
	}
	s.setLayout(room, sw, lw, yw, aw)
	s.yBase, s.float = yBase, float
	for i := range s.n {
		a, y := old.slopeBits(i), old.yField(i)
		switch {
		case a == escSlope:
		case float && !old.float:
			y = math.Float64bits(old.value(y))
		case !float:
			y += uint64(old.yBase - yBase)
		}
		s.put(i, old.startOff(i), uint64(old.segLen(i)), a, y)
	}
}

// maxGridField returns the largest y field of a grid cell's lines.
func (s *Summary) maxGridField() uint64 {
	var m uint64
	for i := range s.n {
		if s.slopeBits(i) != escSlope {
			m = max(m, s.yField(i))
		}
	}
	return m
}

// clip rewrites the columns without room to spare: a sealed cell's form.
func (s *Summary) clip() {
	if s.room != s.n {
		s.relayout(s.n, s.sw, s.lw, s.yw, s.aw(), s.yBase, s.float)
	}
	if w := s.wide; w != nil {
		w.segs = clipped(w.segs)
	}
}

// appendSegment appends seg to the columns in the form lineForm picks,
// rewriting them first when it needs more room, a wider field, a lower base
// or float64 values.
func (s *Summary) appendSegment(seg Segment) {
	i := s.n
	if i == 0 {
		s.firstStart = seg.Start
	}
	off, length := uint64(seg.Start)-uint64(s.firstStart), uint64(seg.End-seg.Start)
	room, sw, lw, yw, base, float := s.room, max(s.sw, width(off)), max(s.lw, width(length)), s.yw, s.yBase, s.float
	if i == room {
		room = max(4, 2*room)
	}
	slope, y := math.Float32bits(float32(seg.A)), uint64(0)
	switch lineForm(seg.A, seg.Y, float, s.escaped(), i) {
	case escapedValue:
		w := s.widened()
		y, slope = uint64(len(w.segs)), escSlope
		w.segs = append(w.segs, wideSeg{a: seg.A, y: seg.Y})
	case floatValue:
		y, yw, base, float = math.Float64bits(seg.Y), 8, 0, true
		if seg.Y == 0 {
			y = 0 // a zero's one form, as gridField gives it
		}
	default:
		k := int64(seg.Y * yUnit)
		switch {
		case i == s.escaped():
			// The cell's first value on the grid: only escaped lines, whose
			// y fields are no values, are held.
			s.yBase, base = k, k
		case k < base:
			yw = max(yw, width(s.maxGridField()+uint64(base-k)))
			base = k
		}
		y = uint64(k - base)
	}
	yw, aw := max(yw, width(y)), max(s.aw(), slopeWidth(slope))
	if room != s.room || sw != s.sw || lw != s.lw || yw != s.yw || aw != s.aw() || base != s.yBase || float != s.float {
		s.relayout(room, sw, lw, yw, aw, base, float)
	}
	s.put(i, off, length, slope, y)
	s.n++
	s.boundStarts()
}

// A plan replays, for a cell's segments in order, the forms appendSegment
// stores them in, and gathers the widths their fields take: the cell block
// decoder sizes a cell's columns from it (planned), hands them over (lay)
// and fills them (fill).
type plan struct {
	n, esc          int
	float, grid     bool
	slopes          uint32 // the bits of every slope stored, ORed
	minK, maxK      int64
	first           int64
	lastOff, maxLen uint64
}

// add folds in the cell's next segment and returns the form it is stored in.
//
//histburst:noalloc
func (p *plan) add(seg Segment) int {
	if p.n == 0 {
		p.first = seg.Start
	}
	p.lastOff = uint64(seg.Start) - uint64(p.first)
	p.maxLen = max(p.maxLen, uint64(seg.End-seg.Start))
	form, slope := lineForm(seg.A, seg.Y, p.float, p.esc, p.n), math.Float32bits(float32(seg.A))
	switch form {
	case escapedValue:
		p.esc++
		slope = escSlope
	case floatValue:
		p.float = true
	default:
		k := int64(seg.Y * yUnit)
		if !p.grid {
			p.minK, p.maxK, p.grid = k, k, true
		}
		p.minK, p.maxK = min(p.minK, k), max(p.maxK, k)
	}
	p.slopes |= slope
	p.n++
	return form
}

// widths returns the field widths and the base of the cell p planned.
func (p *plan) widths() (sw, lw, yw, aw uint8, base int64) {
	sw, lw, aw = width(p.lastOff), width(p.maxLen), slopeWidth(p.slopes)
	switch {
	case p.float:
		return sw, lw, 8, aw, 0
	case p.grid:
		yw, base = width(uint64(p.maxK-p.minK)), p.minK
	}
	if p.esc > 0 {
		yw = max(yw, width(uint64(p.esc-1)))
	}
	return sw, lw, yw, aw, base
}

// planned lays a cell whose segments p planned out for them: widths, base
// and form of values.
func (s *Summary) planned(p *plan) {
	sw, lw, yw, aw, base := p.widths()
	s.setLayout(p.n, sw, lw, yw, aw)
	s.yBase, s.float = base, p.float
}

// lay hands a planned cell its columns, cols, exactly colSize for them, to
// be filled: it holds no segment until fill appends them.
func (s *Summary) lay(cols []byte) {
	s.n, s.cols = 0, cols
}

// fill appends seg, whose form a replaying plan returned, to columns lay
// set up.
func (s *Summary) fill(seg Segment, form int) {
	i := s.n
	if i == 0 {
		s.firstStart = seg.Start
	}
	slope, y := math.Float32bits(float32(seg.A)), uint64(0)
	switch form {
	case escapedValue:
		y, slope = uint64(len(s.wide.segs)), escSlope
		s.wide.segs = append(s.wide.segs, wideSeg{a: seg.A, y: seg.Y})
	case floatValue:
		if seg.Y != 0 {
			y = math.Float64bits(seg.Y)
		}
	default:
		y = s.gridField(seg.Y)
	}
	s.put(i, uint64(seg.Start)-uint64(s.firstStart), uint64(seg.End-seg.Start), slope, y)
	s.n++
}

// key is the search key as the kernels walk it: the start offsets, w
// bytes each. (Four words, so that the compiler keeps it in registers.)
type key struct {
	b []byte
	w int
}

// key returns the cell's search key.
//
//histburst:noalloc
func (s *Summary) key() key { return key{s.cols, int(s.sw)} }

// at returns the i-th start offset.
//
//histburst:noalloc
func (k key) at(i int) uint64 { return field(k.b, i*k.w, uint8(k.w)) }

// last returns the largest i in [lo, hi) whose start offset is at most x,
// where the one at lo is: halving the range, one probe a step, without a
// branch on what the probe reads (the borrow of x − offset keeps or drops
// the half) and without a multiplication between a probe and the next (it
// steps by byte offsets as well as by index).
//
//histburst:noalloc
func (k key) last(lo, hi int, x uint64) int {
	base, at, n := lo, lo*k.w, hi-lo
	m := mask(uint8(k.w))
	for n > 1 {
		half := n >> 1
		step := half * k.w
		o := at + step
		_, past := bits.Sub64(x, binary.LittleEndian.Uint64(k.b[o:o+8:o+8])&m, 0)
		keep := int(past - 1)
		base, at = base+half&keep, at+step&keep
		n -= half
	}
	return base
}
