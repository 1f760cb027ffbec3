package pbe2

import (
	"fmt"
	"math"
	"math/bits"

	"histburst/internal/binenc"
)

// Cell block: how a level of PBE-2 cells — a collision-free summary, or every
// row of a Count-Min one — is stored. What the cells share is said once, what
// an empty cell has to say is one bit, and a segment says where it starts by
// how far that is from where its predecessor ended (see internal/binenc for
// the scalar forms; p counts the present cells, in cell order):
//
//	magic     uint32 "P2B\x03"
//	gamma     float64
//	outOfOrd  uvarint   Σ over the cells
//	present   ⌈cells/8⌉ bytes, bit i%8 of byte i/8 set when cell i holds arrivals
//	nSegments uvarint × p
//	count     uvarint × p
//	open      uvarint × p   count − prevF: the arrivals of the open corner
//	tail      uvarint × p   lastT − the last segment's End
//	outOfOrd  uvarint × p   only when the block's sum is not zero
//	nEscaped  uvarint       the escaped segments of all cells, when p > 0
//	nWide     uvarint       the cells with an escaped line, a line in the
//	                        float64 form (below) or a start 2³² ticks or
//	                        more past their first, when p > 0
//	nFloat    uvarint       the segments of the cells with a line in the
//	                        float64 form, when p > 0
//	escaped   float64 slope, float64 value at Start × nEscaped, in segment order
//	segments  per present cell, per segment:
//	          first  varint  Start − the level's maxT
//	          later  uvarint Start − the previous segment's End
//	          uvarint End − Start
//	          its line, in one of three forms:
//	            int32   the value at Start in units of 2⁻⁸ count, at least
//	                    −2³¹ + 2, then the float32 slope
//	            int32   −2³¹ + 1, float64 the value at Start, float32 slope
//	            int32   −2³¹ alone: the line is the next escaped one
//
// Nothing a decoder can work out is stored, but for nEscaped, nWide and
// nFloat, which must equal what the records hold. A cell is present exactly
// when it has counted an arrival; every cell is a sealed summary, so a
// present one holds at least one segment; an absent cell is the empty
// summary New returns. The form of a cell's records is fileForms' replay of
// its segments, whatever form memory holds them in: a record is escaped
// when no float32 slope holds its line, it is 2³² − 1 ticks long or more,
// or its value at Start is off the grid while the cell's records have
// escaped fewer than a sixth of its segments, or fewer than three, and no
// record of it is in the float64 form; any other line is written in the
// first form exactly when the int32 holds its value at Start. Every varint
// is in its shortest form, so a block has one encoding and DecodeBlock
// accepts no other.

const blockMagic = 'P' | '2'<<8 | 'B'<<16 | 3<<24

// The tags of a segment record's escaped and float64 lines, −2³¹ and
// −2³¹ + 1 as a uint32: no narrow value at Start is either (minNarrowY).
const (
	blockEscaped   = 1 << 31
	blockFloatLine = 1<<31 | 1
)

const (
	// minNarrowY is the least value at Start a record holds in the first
	// form, in units of 2⁻⁸ count: the two int32 below it are the tags.
	minNarrowY = math.MinInt32 + 2
	// escLen bounds a record's length in any but the escaped form: a flat
	// run of seconds never gets there, one of nanoseconds does after 4.3 s.
	escLen = math.MaxUint32
)

const maxSegments = 1 << 32

// minSegmentBytes is the least a stored segment occupies, its record and
// its escaped line together: a record in the first form, two one-byte
// varints, a value and a slope (an escaped record is 6 bytes, and its line
// 16 more). escapedBytes is what an escaped line adds in its own section,
// and minWideBytes the least a cell counted in nWide stores past that
// count: a record in the float64 form.
const (
	minSegmentBytes = 10
	escapedBytes    = 16
	minWideBytes    = 18
)

// finite reports whether both coefficients are numbers.
func finite(a, y float64) bool {
	return !math.IsNaN(a) && !math.IsInf(a, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
}

// narrowY returns a value at Start as the first record form holds it, if
// it does.
//
//histburst:noalloc
func narrowY(y float64) (int32, bool) {
	k := y * yUnit
	if k != math.Trunc(k) || k < minNarrowY || k > math.MaxInt32 {
		return 0, false
	}
	return int32(k), true
}

// fileForms replays, over a cell's segments in order, the form the block
// writes each one's record in: escaped, or a line whose cell has a record
// in the float64 form (float) or not. The rule is the one cells held their
// lines by when a value took 32 bits, so that files stay as they were.
type fileForms struct {
	escaped int  // the cell's escaped records so far
	float   bool // a record of the cell is in the float64 form
}

// next returns the form of the cell's i-th segment, seg: escapedValue,
// floatValue once the cell has a float64 record, narrowValue otherwise. A
// line the first form does not hold is written in the float64 one.
//
//histburst:noalloc
func (f *fileForms) next(seg Segment, i int) int {
	form, k := floatValue, seg.Y*yUnit
	_, narrow := narrowY(seg.Y)
	switch {
	case float64(float32(seg.A)) != seg.A || uint64(seg.End-seg.Start) >= escLen:
		form = escapedValue
	case f.float:
	case narrow:
		form = narrowValue
	case k >= minNarrowY && k <= math.MaxInt32 && 6*f.escaped < max(i, 18):
		form = escapedValue
	default:
		f.float = true
	}
	if form == escapedValue {
		f.escaped++
	}
	return form
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
	escaped, nWide, nFloat := 0, 0, 0
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
		var ff fileForms
		for j := range n {
			ff.next(b.seg(j), j)
		}
		escaped += ff.escaped
		if ff.escaped > 0 || ff.float || uint64(b.lastStart)-uint64(b.firstStart) > math.MaxUint32 {
			nWide++
		}
		if ff.float {
			nFloat += n
		}
		present = append(present, b)
	}
	w.Uint32(blockMagic)
	w.Float64(first.gamma)
	w.Uvarint(uint64(outOfOrder))
	var mask byte
	for i, b := range cells {
		if b.count > 0 {
			mask |= 1 << (i % 8)
		}
		if i%8 == 7 || i == len(cells)-1 {
			w.Byte(mask)
			mask = 0
		}
	}
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
	if len(present) > 0 {
		w.Uvarint(uint64(escaped))
		w.Uvarint(uint64(nWide))
		w.Uvarint(uint64(nFloat))
	}
	for _, b := range present {
		if escaped == 0 {
			break // no cell has an escaped record to replay
		}
		var ff fileForms
		for i := range b.n {
			if seg := b.seg(i); ff.next(seg, i) == escapedValue {
				w.Float64(seg.A)
				w.Float64(seg.Y)
			}
		}
	}

	for _, b := range present {
		var ff fileForms
		prevEnd := maxT
		for i := range b.n {
			seg := b.seg(i)
			if i == 0 {
				w.Varint(seg.Start - prevEnd)
			} else {
				w.Uvarint(uint64(seg.Start - prevEnd))
			}
			w.Uvarint(uint64(seg.End - seg.Start))
			y, narrow := narrowY(seg.Y)
			switch {
			case ff.next(seg, i) == escapedValue:
				w.Uint32(blockEscaped)
			case narrow:
				w.Uint32(uint32(y))
				w.Uint32(math.Float32bits(float32(seg.A)))
			default:
				w.Uint32(blockFloatLine)
				w.Float64(seg.Y)
				w.Uint32(math.Float32bits(float32(seg.A)))
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
// records take the forms fileForms replays, and it ends no later than maxT.
//
// It reads the records once, checking them into a list of the level's
// segments and planning each cell's columns (plan); then, with every shared
// array allocated at its exact size — the columns of all cells in one, the
// escaped lines in another, their wide structs in a third — it fills them
// from the list. Each cell holds a full-slice range of them, so an append
// after loading copies the cell's segments out instead of writing over its
// neighbour's.
//
//histburst:decoder
func DecodeBlock(r *binenc.Reader, cells []Builder, maxT int64) error {
	c := shortest{r: r}
	corrupt := func(format string, args ...any) error {
		if err := r.Err(); err != nil {
			return fmt.Errorf("pbe2: cell block: %w", err)
		}
		return fmt.Errorf("pbe2: cell block: "+format, args...)
	}
	if r.Uint32() != blockMagic {
		return corrupt("bad magic")
	}
	gamma := r.Float64()
	outOfOrder := c.uvarint()
	if err := CheckGamma(gamma); err != nil {
		return corrupt("%v", err)
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
		return corrupt("presence bits set past the last cell")
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
		return fmt.Errorf("pbe2: cell block: %w", err)
	}
	if total > ahead.Remaining()/minSegmentBytes {
		return corrupt("%d segments exceed %d remaining bytes", total, ahead.Remaining())
	}
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		n := c.SliceLen(maxSegments, minSegmentBytes)
		if n == 0 {
			return corrupt("cell %d has arrivals and no segments", i)
		}
		b.n = n // until the second pass fills the columns
	}
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		count := c.uvarint()
		if count == 0 || count > math.MaxInt64 {
			return corrupt("cell %d is present with count %d", i, count)
		}
		b.count = int64(count)
	}
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		open := c.uvarint()
		if open > uint64(b.count) {
			return corrupt("cell %d has %d arrivals in its open corner and %d in all", i, open, b.count)
		}
		b.prevF = b.count - int64(open)
	}
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		tail := c.uvarint()
		if tail > math.MaxInt64 {
			return corrupt("cell %d ends %d ticks past its last segment", i, tail)
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
			v := c.uvarint()
			if v > left || v > math.MaxInt64 {
				return corrupt("cells count more than the block's %d out-of-order arrivals", outOfOrder)
			}
			left -= v
			b.outOfOrder = int64(v)
		}
		if left != 0 {
			return corrupt("cells count %d out-of-order arrivals fewer than the block's %d", left, outOfOrder)
		}
	}
	nEscaped := 0
	if total > 0 {
		nEscaped = c.SliceLen(uint64(total), escapedBytes)
	}
	nWide, nFloat := 0, 0
	if total > 0 {
		nWide = c.SliceLen(uint64(len(cells)), minWideBytes)
		nFloat = c.SliceLen(uint64(total), minSegmentBytes)
	}
	esc := *r
	for range nEscaped {
		r.Float64()
		r.Float64()
	}

	// First pass: read and check the records into segs, in order, and plan
	// each cell's columns. A cell counts towards nWide at its first escaped
	// record, float64 record or start 2³² ticks past its first, and takes as
	// many of nFloat as it has segments at its first float64 record.
	segs := make([]Segment, 0, total)
	escUsed, wideUsed, floatUsed := 0, 0, 0
	colBytes, lines, wides := 0, 0, 0
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		var (
			ff       fileForms
			p        plan
			cellWide bool
			first    int64
		)
		takeWide := func() bool {
			if !cellWide {
				if wideUsed == nWide {
					return false
				}
				wideUsed++
				cellWide = true
			}
			return true
		}
		prevEnd := maxT
		for j := range b.n {
			var start int64
			if j == 0 {
				start = prevEnd + c.varint()
				first = start
			} else {
				gap := c.uvarint()
				start = prevEnd + int64(gap)
				switch {
				case gap > math.MaxInt64:
					return corrupt("cell %d: segment %d starts before its predecessor ends", i, j)
				case start < prevEnd:
					return corrupt("cell %d: segment %d starts past the end of time", i, j)
				}
			}
			length := c.uvarint()
			end := start + int64(length)
			switch {
			case length > math.MaxInt64:
				return corrupt("cell %d: segment %d has a negative length", i, j)
			case end < start:
				return corrupt("cell %d: segment %d ends past the end of time", i, j)
			}
			seg := Segment{Start: start, End: end}
			switch tag := r.Uint32(); tag {
			case blockEscaped:
				if escUsed == nEscaped {
					return corrupt("cell %d: segment %d is escaped past the %d escaped lines", i, j, nEscaped)
				}
				if !takeWide() {
					return corrupt("cell %d: segment %d is escaped past the block's %d wide cells", i, j, nWide)
				}
				seg.A, seg.Y = esc.Float64(), esc.Float64()
				if !finite(seg.A, seg.Y) {
					return corrupt("cell %d: segment %d has non-finite coefficients", i, j)
				}
				if ff.next(seg, j) != escapedValue {
					return corrupt("cell %d: segment %d is escaped, and a line holds it", i, j)
				}
				escUsed++
			case blockFloatLine:
				if length >= escLen {
					return corrupt("cell %d: segment %d is %d ticks long and not escaped", i, j, length)
				}
				seg.Y = r.Float64()
				seg.A = float64(math.Float32frombits(r.Uint32()))
				if !finite(seg.A, seg.Y) {
					return corrupt("cell %d: segment %d has non-finite coefficients", i, j)
				}
				if _, ok := narrowY(seg.Y); ok {
					return corrupt("cell %d: segment %d holds a float64 value the narrow form holds", i, j)
				}
				wasFloat := ff.float
				if ff.next(seg, j) != floatValue {
					return corrupt("cell %d: segment %d holds a float64 value its cell escapes", i, j)
				}
				if !wasFloat {
					if !takeWide() || nFloat-floatUsed < b.n {
						return corrupt("cell %d: segment %d is float64 past the block's %d wide cells and %d float64 segments", i, j, nWide, nFloat)
					}
					floatUsed += b.n
				}
			default:
				if length >= escLen {
					return corrupt("cell %d: segment %d is %d ticks long and not escaped", i, j, length)
				}
				seg.A = float64(math.Float32frombits(r.Uint32()))
				if !finite(seg.A, 0) {
					return corrupt("cell %d: segment %d has non-finite coefficients", i, j)
				}
				seg.Y = float64(int32(tag)) / yUnit
				ff.next(seg, j)
			}
			if uint64(start)-uint64(first) > math.MaxUint32 && !takeWide() {
				return corrupt("cell %d: segment %d starts 2³² ticks past the first, past the block's %d wide cells", i, j, nWide)
			}
			p.add(seg)
			segs = append(segs, seg)
			prevEnd = end
		}
		tail := b.lastT
		b.lastT = prevEnd + tail
		if b.lastT < prevEnd || b.lastT > maxT {
			return corrupt("cell %d ends at %d+%d, past the level's last timestamp %d", i, prevEnd, tail, maxT)
		}
		colBytes += b.planned(&p)
		lines += p.esc
		if p.esc > 0 {
			wides++
		}
		b.room = p.esc // until the second pass lays the columns out
	}
	if escUsed != nEscaped {
		return corrupt("%d escaped lines, %d segments escaped", nEscaped, escUsed)
	}
	if wideUsed != nWide || floatUsed != nFloat {
		return corrupt("%d wide cells and %d float64 segments, the block says %d and %d", wideUsed, floatUsed, nWide, nFloat)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("pbe2: cell block: %w", err)
	}
	if c.overlong {
		return corrupt("a varint is not in its shortest form")
	}

	// Second pass: the segments into the shared arrays. A segment takes at
	// most 28 bytes of columns — an 8-byte start, length and value and a
	// slope, the bytes past a cell's last row included — so the plan never
	// passes what the segment counts allow.
	cols := make([]byte, min(colBytes, 28*total))
	escLines, wideCells := make([]wideSeg, min(lines, total)), make([]wide, wides)
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		size := colSize(b.n, b.sw, b.lw, b.yw)
		// A cell of grid values alone stores each as lineForm would; one
		// that escapes a line or holds float64 values replays the rule.
		cell, replay := segs[:b.n], b.room > 0 || b.float
		segs = segs[b.n:]
		b.lay(cols[:size:size])
		cols = cols[size:]
		// The next wide struct stands by for the cell's escaped lines, the
		// rest of their array behind it; a cell that escapes none gives it
		// back.
		b.wide = nil
		if len(wideCells) > 0 {
			b.wide = &wideCells[0]
			b.wide.segs = escLines[:0:len(escLines)]
		}
		var p plan
		for _, seg := range cell {
			form := narrowValue
			if replay {
				form = p.add(seg)
			}
			b.fill(seg, form)
		}
		if k := b.escaped(); k > 0 {
			b.wide.segs = b.wide.segs[:k:k]
			wideCells, escLines = wideCells[1:], escLines[k:]
		} else if b.wide != nil {
			*b.wide, b.wide = wide{}, nil
		}
		b.boundStarts()
		b.rest() // sets headLow; the columns are exact already
	}
	return nil
}

// shortest reads varints through a binenc.Reader and notes any that is not in
// its shortest form — binenc, like encoding/binary, decodes 0x80 0x00 as 0 —
// so that DecodeBlock can refuse the block: what it accepts is then exactly
// what EncodeBlock writes.
type shortest struct {
	r        *binenc.Reader
	overlong bool
}

// note records whether the varint just read from the position that had before
// bytes remaining, and holding ux, took more bytes than ux needs.
func (c *shortest) note(before int, ux uint64) {
	if c.r.Err() == nil && before-c.r.Remaining() != (bits.Len64(ux|1)+6)/7 {
		c.overlong = true
	}
}

func (c *shortest) uvarint() uint64 {
	before := c.r.Remaining()
	v := c.r.Uvarint()
	c.note(before, v)
	return v
}

func (c *shortest) varint() int64 {
	before := c.r.Remaining()
	v := c.r.Varint()
	c.note(before, uint64(v)<<1^uint64(v>>63))
	return v
}

// SliceLen is binenc.Reader.SliceLen under the same watch.
func (c *shortest) SliceLen(max uint64, minElemBytes int) int {
	before := c.r.Remaining()
	n := c.r.SliceLen(max, minElemBytes)
	c.note(before, uint64(n))
	return n
}
