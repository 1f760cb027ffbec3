package pbe2

import (
	"fmt"
	"math"

	"histburst/internal/binenc"
)

// Cell block: how a level of PBE-2 cells — a collision-free summary, or every
// row of a Count-Min one — is stored. What the cells share is said once, what
// an empty cell has to say is one bit, and a segment says where it starts by
// how far that is from where its predecessor ended (see internal/binenc for
// the scalar forms; p counts the present cells, in cell order):
//
//	magic     uint32 "P2B\x05"
//	gamma     float64
//	outOfOrd  uvarint   Σ over the cells
//	present   ⌈cells/8⌉ bytes, bit i%8 of byte i/8 set when cell i holds arrivals
//	nSegments uvarint × p
//	count     uvarint × p
//	open      uvarint × p   count − prevF: the arrivals of the open corner
//	tail      uvarint × p   lastT − the last segment's End
//	outOfOrd  uvarint × p   only when the block's sum is not zero
//	float     ⌈p/8⌉ bytes, bit j%8 of byte j/8 set when the j-th present cell
//	          holds float64 values
//	width     ⌈p/4⌉ bytes, bits 2(j%4) and 2(j%4)+1 of byte j/4 the j-th
//	          present cell's slope width code: 0, 1, 2, 3 for aw = 0, 2, 3, 4
//	segments  per present cell, per segment:
//	          first  varint  Start − the level's maxT
//	          later  uvarint Start − the previous segment's End
//	          uvarint End − Start
//	          aw bytes  the top aw bytes of the float32 slope, or of escSlope
//	                    for a segment escaped whole, as the cell's columns
//	                    hold them (column.go)
//	          then, as the cell holds the segment:
//	            escaped     float64 slope, float64 value at Start
//	            grid cell   varint, the value at Start in units of 2⁻⁸ count
//	            float cell  float64 value at Start
//
// Nothing a decoder can work out is stored but the float bits and the slope
// widths, which must agree with where the records take their cells: a
// cell's width is the least its slopes need (slopeWidth). A cell is present
// exactly when it has counted an arrival; every cell is a sealed summary, so
// a present one holds at least one segment; an absent cell is the empty
// summary New returns. Each record is in the form its cell holds the segment
// in, which lineForm picked as the segments were appended: DecodeBlock
// replays it and refuses a record in any other. Every varint is in its
// shortest form, and a float cell holds a zero as +0, so a block has one
// encoding and DecodeBlock accepts no other.

const blockMagic = 'P' | '2'<<8 | 'B'<<16 | 5<<24

const maxSegments = 1 << 32

// minSegmentBytes is the least a stored segment occupies: two one-byte
// varints, a slope of no bytes and a one-byte value.
const minSegmentBytes = 3

// listRecordBytes is the least a level's records must take on average, in
// bytes, for DecodeBlock to keep its segments in a list between its passes,
// 32 bytes a segment: it keeps the list within 4 times the input, and
// encoded cells' records take some 10 bytes. A variable only so that a test
// can drive both passes over the same block.
var listRecordBytes = 8

// widthCodes are the slope widths a cell block's 2-bit codes stand for.
var widthCodes = [4]uint8{0, 2, 3, 4}

// finite reports whether both coefficients are numbers.
func finite(a, y float64) bool {
	return !math.IsNaN(a) && !math.IsInf(a, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
}

// putBits writes a bit for each of n cells, bit i%8 of byte i/8 set when
// set(i) holds.
func putBits(w *binenc.Writer, n int, set func(i int) bool) {
	putCodes(w, n, 1, func(i int) byte {
		if set(i) {
			return 1
		}
		return 0
	})
}

// putCodes writes a code of k bits, k dividing 8, for each of n cells: the
// i-th at bit k·i%8 of byte k·i/8.
func putCodes(w *binenc.Writer, n, k int, code func(i int) byte) {
	var b byte
	per := 8 / k
	for i := range n {
		b |= code(i) << (k * (i % per))
		if i%per == per-1 || i == n-1 {
			w.Byte(b)
			b = 0
		}
	}
}

// EncodeBlock appends cells — sealed summaries under one gamma — to w as one
// cell block. maxT is the level's largest timestamp, the base the first
// start of every cell is written against; DecodeBlock must be given the same.
func EncodeBlock(w *binenc.Writer, cells []*Summary, maxT int64) error {
	if len(cells) == 0 {
		return fmt.Errorf("pbe2: cell block of zero cells")
	}
	first := cells[0]
	var outOfOrder int64
	present := make([]*Summary, 0, len(cells))
	for i, b := range cells {
		if b.gamma != first.gamma {
			return fmt.Errorf("pbe2: cell %d has gamma %v in a block of gamma %v", i, b.gamma, first.gamma)
		}
		if b.count == 0 {
			continue
		}
		// What the columns below cannot express no builder, merge or
		// downsample produces; a cell in such a state must not reach a file
		// the decoder would then refuse.
		n := b.n
		if n == 0 || b.prevF < 0 || b.prevF > b.count || b.outOfOrder < 0 || b.lastT < b.lastStart+b.segLen(n-1) {
			return fmt.Errorf("pbe2: cell %d is inconsistent: %d segments, count %d, prevF %d, frontier %d", i, n, b.count, b.prevF, b.lastT)
		}
		outOfOrder += b.outOfOrder
		present = append(present, b)
	}
	w.Uint32(blockMagic)
	w.Float64(first.gamma)
	w.Uvarint(uint64(outOfOrder))
	putBits(w, len(cells), func(i int) bool { return cells[i].count > 0 })
	for _, b := range present {
		w.Uvarint(uint64(b.n))
	}
	for _, b := range present {
		w.Uvarint(uint64(b.count))
	}
	for _, b := range present {
		w.Uvarint(uint64(b.count - b.prevF))
	}
	for _, b := range present {
		w.Uvarint(uint64(b.lastT - b.lastStart - b.segLen(b.n-1)))
	}
	if outOfOrder != 0 {
		for _, b := range present {
			w.Uvarint(uint64(b.outOfOrder))
		}
	}
	putBits(w, len(present), func(i int) bool { return present[i].float })
	putCodes(w, len(present), 2, func(i int) byte { return max(present[i].aw(), 1) - 1 })

	for _, b := range present {
		prevEnd := maxT
		for i := range b.n {
			seg, slope := b.seg(i), b.slopeBits(i)
			if i == 0 {
				w.Varint(seg.Start - prevEnd)
			} else {
				w.Uvarint(uint64(seg.Start - prevEnd))
			}
			w.Uvarint(uint64(seg.End - seg.Start))
			w.UintN(uint64(slope)>>(b.aSh&63), int(b.aw()))
			switch {
			case slope == escSlope:
				w.Float64(seg.A)
				w.Float64(seg.Y)
			case b.float:
				w.Float64(seg.Y)
			default:
				w.Varint(int64(seg.Y * yUnit))
			}
			prevEnd = seg.End
		}
	}
	return nil
}

// DecodeBlock reads one cell block into cells, which the caller has sized to
// the level (their number is the level's to know: the block holds a bit per
// cell) and which are overwritten whole, each with a sealed summary. It
// holds the block to what the encoder writes, because the search kernels
// assume it and a checksum only proves the bytes are the ones written: every
// present cell has arrivals and segments, its open corner is no larger than
// its count, its segments ascend without overlap on finite coefficients, its
// records take the forms a plan replays, and it ends no later than maxT.
//
// It reads the records once, checking them and planning each cell's
// columns (plan); then, with every shared array allocated at its exact size
// — the columns of all cells in one, laid end to end as Lay lays a built
// level's (layLevel), the escaped lines in another, their wide structs in a
// third — it fills them from a list of the segments the first pass kept, or,
// where the list would take more than 4 times the input left, from the
// records read again. Each cell holds a full-slice range of them, so an
// append after loading copies the cell's segments out instead of writing
// over its neighbour's. It returns the columns' array.
//
//histburst:decoder
func DecodeBlock(r *binenc.Reader, cells []Builder, maxT int64) ([]byte, error) {
	corrupt := func(format string, args ...any) error {
		if err := r.Err(); err != nil {
			return fmt.Errorf("pbe2: cell block: %w", err)
		}
		return fmt.Errorf("pbe2: cell block: "+format, args...)
	}
	if r.Uint32() != blockMagic {
		return nil, corrupt("bad magic")
	}
	gamma := r.Float64()
	outOfOrder := r.Uvarint()
	if err := CheckGamma(gamma); err != nil {
		return nil, corrupt("%v", err)
	}
	var mask byte
	for i := range cells {
		if i%8 == 0 {
			mask = r.Byte()
		}
		cells[i].reset(gamma)
		cells[i].count = int64(mask >> (i % 8) & 1) // presence; the count is read below
	}
	if pad := len(cells) % 8; pad != 0 && mask>>pad != 0 {
		return nil, corrupt("presence bits set past the last cell")
	}

	// The segment count column, read twice: once ahead on a copy of the
	// reader, to hold their sum to the bytes that remain, and again below,
	// when each cell notes its own.
	ahead := *r
	total := 0
	for i := range cells {
		if cells[i].count > 0 {
			n := ahead.SliceLen(maxSegments, minSegmentBytes)
			total += n
		}
	}
	if err := ahead.Err(); err != nil {
		return nil, fmt.Errorf("pbe2: cell block: %w", err)
	}
	if total > ahead.Remaining()/minSegmentBytes {
		return nil, corrupt("%d segments exceed %d remaining bytes", total, ahead.Remaining())
	}
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		n := r.SliceLen(maxSegments, minSegmentBytes)
		if n == 0 {
			return nil, corrupt("cell %d has arrivals and no segments", i)
		}
		b.n = n // until the second pass fills the columns
	}
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		count := r.Uvarint()
		if count == 0 || count > math.MaxInt64 {
			return nil, corrupt("cell %d is present with count %d", i, count)
		}
		b.count = int64(count)
	}
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		open := r.Uvarint()
		if open > uint64(b.count) {
			return nil, corrupt("cell %d has %d arrivals in its open corner and %d in all", i, open, b.count)
		}
		b.prevF = b.count - int64(open)
	}
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		tail := r.Uvarint()
		if tail > math.MaxInt64 {
			return nil, corrupt("cell %d ends %d ticks past its last segment", i, tail)
		}
		b.lastT = int64(tail) // until the last segment's End is known
	}
	if outOfOrder != 0 {
		left := outOfOrder
		for i := range cells {
			b := &cells[i]
			if b.count == 0 {
				continue
			}
			v := r.Uvarint()
			if v > left || v > math.MaxInt64 {
				return nil, corrupt("cells count more than the block's %d out-of-order arrivals", outOfOrder)
			}
			left -= v
			b.outOfOrder = int64(v)
		}
		if left != 0 {
			return nil, corrupt("cells count %d out-of-order arrivals fewer than the block's %d", left, outOfOrder)
		}
	}
	present := 0
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		if present%8 == 0 {
			mask = r.Byte()
		}
		b.float = mask>>(present%8)&1 != 0
		present++
	}
	if pad := present % 8; pad != 0 && mask>>pad != 0 {
		return nil, corrupt("float bits set past the %d present cells", present)
	}
	// The slope widths, read with the records below on a copy of the reader.
	widths := *r
	for range (present + 3) / 4 {
		r.Byte()
	}

	// First pass: read and check the records, and plan each cell's columns:
	// a record must be in the form the plan replays for it, and a cell must
	// hold float64 values exactly when its plan ends so. The segments go
	// into a list while that stays within 4 times the bytes left
	// (listRecordBytes); otherwise the second pass reads the records again,
	// from a copy of the reader taken here.
	records, listed := *r, total <= ahead.Remaining()/listRecordBytes
	var segs []Segment
	if listed {
		segs = make([]Segment, 0, total)
	}
	lines, wides := 0, 0
	present = 0
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		if present%4 == 0 {
			mask = widths.Byte()
		}
		aw := widthCodes[mask>>(2*(present%4))&3]
		present++
		var p plan
		prevEnd := maxT
		for j := range b.n {
			var start int64
			if j == 0 {
				first := r.Varint()
				start = prevEnd + first
			} else {
				gap := r.Uvarint()
				start = prevEnd + int64(gap)
				switch {
				case gap > math.MaxInt64:
					return nil, corrupt("cell %d: segment %d starts before its predecessor ends", i, j)
				case start < prevEnd:
					return nil, corrupt("cell %d: segment %d starts past the end of time", i, j)
				}
			}
			length := r.Uvarint()
			end := start + int64(length)
			switch {
			case length > math.MaxInt64:
				return nil, corrupt("cell %d: segment %d has a negative length", i, j)
			case end < start:
				return nil, corrupt("cell %d: segment %d ends past the end of time", i, j)
			}
			seg := Segment{Start: start, End: end}
			var k int64
			slope := uint32(r.UintN(int(aw)) << slopeShift(aw))
			switch {
			case slope == escSlope:
				seg.A, seg.Y = r.Float64(), r.Float64()
			case b.float:
				seg.A, seg.Y = float64(math.Float32frombits(slope)), r.Float64()
				if math.Float64bits(seg.Y) == 1<<63 {
					return nil, corrupt("cell %d: segment %d holds −0, where a cell holds +0", i, j)
				}
			default:
				k = r.Varint()
				seg.A, seg.Y = float64(math.Float32frombits(slope)), float64(k)/yUnit
			}
			if !finite(seg.A, seg.Y) {
				return nil, corrupt("cell %d: segment %d has non-finite coefficients", i, j)
			}
			switch form := p.add(seg); {
			case slope == escSlope && form != escapedValue:
				return nil, corrupt("cell %d: segment %d is escaped, and its cell keeps its line", i, j)
			case slope != escSlope && form == escapedValue:
				return nil, corrupt("cell %d: segment %d is a line its cell escapes", i, j)
			case !b.float && form == floatValue:
				return nil, corrupt("cell %d: segment %d holds a grid value its cell takes to float64", i, j)
			case !b.float && form == narrowValue && int64(seg.Y*yUnit) != k:
				return nil, corrupt("cell %d: segment %d holds %d units of 2⁻⁸ count, which no float64 holds", i, j, k)
			}
			if listed {
				segs = append(segs, seg)
			}
			prevEnd = end
		}
		if p.float != b.float {
			return nil, corrupt("cell %d holds float64 values, and its segments' forms keep to the grid", i)
		}
		if need := slopeWidth(p.slopes); need != aw {
			return nil, corrupt("cell %d stores its slopes in %d bytes, and they need %d", i, aw, need)
		}
		tail := b.lastT
		b.lastT = prevEnd + tail
		if b.lastT < prevEnd || b.lastT > maxT {
			return nil, corrupt("cell %d ends at %d+%d, past the level's last timestamp %d", i, prevEnd, tail, maxT)
		}
		b.planned(&p)
		lines += p.esc
		if p.esc > 0 {
			wides++
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pbe2: cell block: %w", err)
	}
	if pad := present % 4; pad != 0 && mask>>(2*pad) != 0 {
		return nil, corrupt("slope width bits set past the %d present cells", present)
	}
	if r.Overlong() {
		return nil, corrupt("a varint is not in its shortest form")
	}

	// Second pass: the segments, listed or read again, into the shared
	// arrays. A segment takes at most 28 bytes of columns — an 8-byte
	// start, length and value and a 4-byte slope, the bytes past a cell's
	// last row included — so the plan never passes what the segment counts
	// allow.
	cols := make([]byte, min(levelSize(cells), 28*total))
	escLines, wideCells := make([]wideSeg, min(lines, total)), make([]wide, wides)
	layLevel(cells, cols, func(b *Builder, to []byte) {
		n, aw := b.n, b.aw()
		b.lay(to)
		// The next wide struct stands by for the cell's escaped lines, the
		// rest of their array behind it; a cell that escapes none gives it
		// back.
		b.wide = nil
		if len(wideCells) > 0 {
			b.wide = &wideCells[0]
			b.wide.segs = escLines[:0:len(escLines)]
		}
		var p plan
		if listed {
			for _, seg := range segs[:n] {
				b.fill(seg, p.add(seg))
			}
			segs = segs[n:]
		} else {
			prevEnd := maxT
			for j := range n {
				seg := reread(&records, j, prevEnd, aw, b.float)
				b.fill(seg, p.add(seg))
				prevEnd = seg.End
			}
		}
		if k := b.escaped(); k > 0 {
			b.wide.segs = b.wide.segs[:k:k]
			wideCells, escLines = wideCells[1:], escLines[k:]
		} else if b.wide != nil {
			*b.wide, b.wide = wide{}, nil
		}
		b.boundStarts()
		b.rest() // sets headLow
	})
	return cols, nil
}

// reread reads again the j-th segment record of a cell whose slopes take aw
// bytes and whose values are float64 when float, which DecodeBlock's first
// pass has checked: prevEnd is its predecessor's End, or the level's maxT
// for the first.
func reread(r *binenc.Reader, j int, prevEnd int64, aw uint8, float bool) Segment {
	start := prevEnd
	if j == 0 {
		first := r.Varint()
		start += first
	} else {
		gap := r.Uvarint()
		start += int64(gap)
	}
	length := r.Uvarint()
	seg := Segment{Start: start, End: start + int64(length)}
	slope := uint32(r.UintN(int(aw)) << slopeShift(aw))
	switch {
	case slope == escSlope:
		seg.A, seg.Y = r.Float64(), r.Float64()
	case float:
		seg.A, seg.Y = float64(math.Float32frombits(slope)), r.Float64()
	default:
		seg.A, seg.Y = float64(math.Float32frombits(slope)), float64(r.Varint())/yUnit
	}
	return seg
}
