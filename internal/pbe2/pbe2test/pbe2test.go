// Package pbe2test forges PBE-2 summaries no builder would emit, for the
// tests of the decoders and stores that must refuse them.
package pbe2test

import (
	"bytes"
	"encoding/binary"
	"math"

	"histburst/internal/binenc"
)

// Poison finds, in any bytes that embed a collision-free level of PBE-2 cells
// (a detector file, a segment file), the first such level with a present
// cell that stores slopes in some bytes, and overwrites the slope of that
// cell's first segment with NaN: the record's slope bytes, with a NaN other
// than the escape marker, or the float64 slope behind the marker when the
// segment is escaped, so everything around them still parses. It reports
// whether it found one. The caller recomputes whatever checksum covers the
// bytes.
func Poison(data []byte) bool {
	const escSlope = 0x7fc00000 // the escape marker, itself a NaN
	levelMagic := []byte{4, 'D', 'I', 'R', 1}
	for at := 0; ; at++ {
		i := bytes.Index(data[at:], levelMagic)
		if i < 0 {
			return false
		}
		at += i
		r := binenc.NewReader(data[at:])
		r.BytesBlob() // level magic
		cells := r.Uvarint()
		r.Varint() // n
		r.Varint() // maxT
		if r.Uint32() != 'P'|'2'<<8|'B'<<16|5<<24 || cells > uint64(r.Remaining()) {
			continue
		}
		r.Float64() // gamma
		outOfOrder := r.Uvarint()
		present := 0
		for c := uint64(0); c < cells; c += 8 {
			for mask := r.Byte(); mask != 0; mask &= mask - 1 {
				present++
			}
		}
		if present == 0 || r.Err() != nil {
			continue
		}
		segs := make([]uint64, present)
		for j := range segs {
			segs[j] = r.Uvarint()
		}
		columns := 3 // count, open, tail
		if outOfOrder != 0 {
			columns++
		}
		for n := columns * present; n > 0; n-- {
			r.Uvarint()
		}
		float, widths := make([]bool, present), make([]int, present)
		var b byte
		for j := range float {
			if j%8 == 0 {
				b = r.Byte()
			}
			float[j] = b>>(j%8)&1 != 0
		}
		for j := range widths {
			if j%4 == 0 {
				b = r.Byte()
			}
			widths[j] = [4]int{0, 2, 3, 4}[b>>(2*(j%4))&3]
		}
		if poisonCell(data, r, segs, float, widths) {
			return true
		}
	}
}

// poisonCell walks the records of a cell block from r, the cells' segment
// counts, float bits and slope widths given, and poisons the first segment
// of the first cell whose slopes take bytes.
func poisonCell(data []byte, r *binenc.Reader, segs []uint64, float []bool, widths []int) bool {
	const escSlope = 0x7fc00000
	for j, n := range segs {
		aw := widths[j]
		for k := uint64(0); k < n; k++ {
			if k == 0 {
				r.Varint() // first start
			} else {
				r.Uvarint() // gap
			}
			r.Uvarint() // length
			pos := len(data) - r.Remaining()
			slope := uint32(r.UintN(aw) << (32 - 8*aw))
			if r.Err() != nil {
				return false
			}
			if aw > 0 && k == 0 {
				if slope == escSlope {
					binary.LittleEndian.PutUint64(data[pos+aw:], math.Float64bits(math.NaN()))
				} else {
					// A NaN other than the marker, in the cell's top bytes.
					var nan [4]byte
					binary.LittleEndian.PutUint32(nan[:], escSlope|1<<(32-8*aw))
					copy(data[pos:pos+aw], nan[4-aw:])
				}
				return true
			}
			switch {
			case slope == escSlope:
				r.Float64()
				r.Float64()
			case float[j]:
				r.Float64()
			default:
				r.Varint()
			}
		}
	}
	return false
}
