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
// nFloat, which size the arrays the records' escaped and float64 lines go
// to before the records are read, and must equal what the records hold. A cell is present exactly when it has counted an
// arrival; every cell is a sealed summary, so a present one holds at least
// one segment; an absent cell is the empty summary New returns. A segment is
// escaped exactly when it is in memory: no float32 slope holds its line, it
// is 2³² − 1 ticks long or more, or its cell escapes its value (see
// valueForm). Any other line is written in the first form exactly when its
// value at Start is on that grid, and a cell holds its values as float64 in
// memory exactly when one of its lines is written in the second. Every varint is in its shortest form, so a block
// has one encoding and DecodeBlock accepts no other.

const blockMagic = 'P' | '2'<<8 | 'B'<<16 | 3<<24

// The tags of a segment record's escaped and float64 lines, −2³¹ and
// −2³¹ + 1 as a uint32: no narrow value at Start is either (minNarrowY).
const (
	blockEscaped   = 1 << 31
	blockFloatLine = 1<<31 | 1
)

const maxSegments = 1 << 32

// minSegmentBytes is the least a stored segment's record occupies: two
// one-byte varints and an escape tag. escapedBytes is what an escaped line
// adds in its own section, and minWideBytes the least a cell counted in
// nWide stores past that count: a record in the float64 form.
const (
	minSegmentBytes = 6
	escapedBytes    = 16
	minWideBytes    = 18
)

// finite reports whether both coefficients are numbers.
func finite(a, y float64) bool {
	return !math.IsNaN(a) && !math.IsInf(a, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
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
		n := len(b.lines)
		if n == 0 || b.prevF < 0 || b.prevF > b.count || b.outOfOrder < 0 || b.lastT < b.lastStart+b.segLen(n-1) {
			return fmt.Errorf("pbe2: cell %d is inconsistent: %d segments, count %d, prevF %d, frontier %d", i, n, b.count, b.prevF, b.lastT)
		}
		outOfOrder += b.outOfOrder
		if w := b.wide; w != nil {
			escaped += len(w.segs)
			nWide++
			if w.yhi != nil {
				nFloat += n
			}
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
		w.Uvarint(uint64(len(b.lines)))
	}
	for _, b := range present {
		w.Uvarint(uint64(b.count))
	}
	for _, b := range present {
		w.Uvarint(uint64(b.count - b.prevF))
	}
	for _, b := range present {
		w.Uvarint(uint64(b.lastT - b.lastStart - b.segLen(len(b.lines)-1)))
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
		if b.wide != nil {
			for _, e := range b.wide.segs {
				w.Float64(e.a)
				w.Float64(e.y)
			}
		}
	}

	for _, b := range present {
		prevEnd := maxT
		for i := range b.lines {
			seg := b.seg(i)
			if i == 0 {
				w.Varint(seg.Start - prevEnd)
			} else {
				w.Uvarint(uint64(seg.Start - prevEnd))
			}
			w.Uvarint(uint64(seg.End - seg.Start))
			y, narrow := narrowY(seg.Y)
			switch {
			case b.lens[i] == escLen:
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
// its count, its segments ascend without overlap on finite coefficients, and
// it ends no later than maxT. The segments of all cells share their arrays,
// each cell holding a full-slice range of them, so an append after loading
// copies the cell's segments out instead of writing over its neighbour's.
// Every shared array is allocated at its exact size before the records are
// read — the escaped segments' from nEscaped, the wide structs' from nWide,
// the float64 values' high halves from nFloat — but the narrow starts: a
// cell whose starts reach 2³² ticks past its first moves them, as it reads
// them, to a wide column of its own, and when one does the narrow starts are
// copied once more at the end into an array without its range.
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
	// reader, to size the shared arrays before anything is allocated, and
	// again below, when each cell takes its range of them.
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
	starts := make([]uint32, total)
	lens := make([]uint32, total)
	lines := make([]line, total)
	off := 0
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		n := c.SliceLen(maxSegments, minSegmentBytes)
		if n == 0 {
			return corrupt("cell %d has arrivals and no segments", i)
		}
		b.starts, b.lens, b.lines = starts[off:off+n:off+n], lens[off:off+n:off+n], lines[off:off+n:off+n]
		off += n
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
	escaped := make([]wideSeg, nEscaped)
	for k := range escaped {
		escaped[k].a, escaped[k].y = r.Float64(), r.Float64()
	}
	wides, yhi := make([]wide, nWide), make([]int32, nFloat)

	// A cell takes the next escaped lines in order, the next wide struct
	// when it first needs one, and at its first float64 line as many high
	// halves as it has segments.
	escUsed, wideUsed, floatUsed, wentWide := 0, 0, 0, false
	for i := range cells {
		b := &cells[i]
		if b.count == 0 {
			continue
		}
		cellEsc := escUsed
		takeWide := func() bool {
			if b.wide == nil {
				if wideUsed == len(wides) {
					return false
				}
				b.wide = &wides[wideUsed]
				wideUsed++
			}
			return true
		}
		prevEnd := maxT
		for j := range b.lines {
			var start int64
			if j == 0 {
				start = prevEnd + c.varint()
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
			ln, hi, n := line{}, int32(0), uint32(length)
			switch tag := r.Uint32(); tag {
			case blockEscaped:
				if escUsed == len(escaped) {
					return corrupt("cell %d: segment %d is escaped past the %d escaped lines", i, j, len(escaped))
				}
				if !takeWide() {
					return corrupt("cell %d: segment %d is escaped past the block's %d wide cells", i, j, len(wides))
				}
				e := &escaped[escUsed]
				if !finite(e.a, e.y) {
					return corrupt("cell %d: segment %d has non-finite coefficients", i, j)
				}
				if float64(float32(e.a)) == e.a && length < escLen && b.valueForm(e.y, escUsed-cellEsc, j) != escapedValue {
					return corrupt("cell %d: segment %d is escaped, and a line holds it", i, j)
				}
				e.n = int64(length)
				ln, n = escapedLine(escUsed-cellEsc), escLen
				escUsed++
			case blockFloatLine:
				if length >= escLen {
					return corrupt("cell %d: segment %d is %d ticks long and not escaped", i, j, length)
				}
				y := r.Float64()
				ln.a = math.Float32frombits(r.Uint32())
				if !finite(float64(ln.a), y) {
					return corrupt("cell %d: segment %d has non-finite coefficients", i, j)
				}
				if _, ok := narrowY(y); ok {
					return corrupt("cell %d: segment %d holds a float64 value the narrow form holds", i, j)
				}
				if b.valueForm(y, escUsed-cellEsc, j) != floatValue {
					return corrupt("cell %d: segment %d holds a float64 value its cell escapes", i, j)
				}
				if b.wide == nil || b.wide.yhi == nil {
					n := len(b.lines)
					if !takeWide() || len(yhi)-floatUsed < n {
						return corrupt("cell %d: segment %d is float64 past the block's %d wide cells and %d float64 segments", i, j, len(wides), len(yhi))
					}
					b.widenY(yhi[floatUsed : floatUsed+n : floatUsed+n])
					floatUsed += n
				}
				ln, hi = floatLine(ln.a, y)
			default:
				if length >= escLen {
					return corrupt("cell %d: segment %d is %d ticks long and not escaped", i, j, length)
				}
				ln = line{a: math.Float32frombits(r.Uint32()), y: int32(tag)}
				if a := float64(ln.a); math.IsNaN(a) || math.IsInf(a, 0) {
					return corrupt("cell %d: segment %d has non-finite coefficients", i, j)
				}
				if b.wide != nil && b.wide.yhi != nil {
					ln, hi = floatLine(ln.a, float64(ln.y)/yUnit)
				}
			}
			if j == 0 {
				b.firstStart = start
			}
			switch off := uint64(start) - uint64(b.firstStart); {
			case b.starts == nil:
				b.wide.starts[j] = off
			case off > math.MaxUint32:
				if !takeWide() {
					return corrupt("cell %d: segment %d starts 2³² ticks past the first, past the block's %d wide cells", i, j, len(wides))
				}
				b.widen()
				b.wide.starts[j] = off
				wentWide = true
			default:
				b.starts[j] = uint32(off)
			}
			b.lens[j], b.lines[j] = n, ln
			if b.wide != nil && b.wide.yhi != nil {
				b.wide.yhi[j] = hi
			}
			prevEnd = end
		}
		if escUsed > cellEsc {
			b.wide.segs = escaped[cellEsc:escUsed:escUsed]
		}
		tail := b.lastT
		b.lastT = prevEnd + tail
		if b.lastT < prevEnd || b.lastT > maxT {
			return corrupt("cell %d ends at %d+%d, past the level's last timestamp %d", i, prevEnd, tail, maxT)
		}
		b.boundStarts()
		b.rest() // sets headLow; the columns are exact already
	}
	if escUsed != len(escaped) {
		return corrupt("%d escaped lines, %d segments escaped", len(escaped), escUsed)
	}
	if wideUsed != len(wides) || floatUsed != len(yhi) {
		return corrupt("%d wide cells and %d float64 segments, the block says %d and %d", wideUsed, floatUsed, len(wides), len(yhi))
	}
	if wentWide {
		// The wide cells' ranges of the narrow starts went unused: copy the
		// rest into an array without them.
		kept := 0
		for i := range cells {
			kept += len(cells[i].starts)
		}
		exact := make([]uint32, kept)
		for i := range cells {
			b := &cells[i]
			if n := len(b.starts); n > 0 {
				copy(exact, b.starts)
				b.starts, exact = exact[:n:n], exact[n:]
			}
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("pbe2: cell block: %w", err)
	}
	if c.overlong {
		return corrupt("a varint is not in its shortest form")
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
