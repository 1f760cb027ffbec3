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
// cell and overwrites the slope of that cell's first segment with NaN: the
// record's four bytes, with a NaN other than the escape marker, or the
// float64 slope behind the marker when the segment is escaped, so everything
// around them still parses. It reports whether it found one. The caller
// recomputes whatever checksum covers the bytes.
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
		if r.Uint32() != 'P'|'2'<<8|'B'<<16|4<<24 || cells > uint64(r.Remaining()) {
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
		if present == 0 {
			continue
		}
		columns := 4 // nSegments, count, open, tail
		if outOfOrder != 0 {
			columns++
		}
		for n := columns * present; n > 0; n-- {
			r.Uvarint()
		}
		for n := (present + 7) / 8; n > 0; n-- {
			r.Byte() // float bits
		}
		r.Varint()  // first start
		r.Uvarint() // its length
		pos := len(data) - r.Remaining()
		slope := r.Uint32()
		if slope == escSlope {
			r.Float64() // the slope to poison
		}
		if r.Err() != nil {
			continue
		}
		if slope == escSlope {
			binary.LittleEndian.PutUint64(data[pos+4:], math.Float64bits(math.NaN()))
		} else {
			binary.LittleEndian.PutUint32(data[pos:], escSlope|1)
		}
		return true
	}
}
