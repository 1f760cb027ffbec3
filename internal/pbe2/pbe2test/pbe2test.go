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
// cell and overwrites the slope of that cell's first segment with NaN: four
// bytes in place, past a float64 value at Start if the line holds one, or
// eight in the block's escaped lines when its line is the first of them, so
// everything around them still parses. It reports whether
// it found one. The caller recomputes whatever checksum covers the bytes.
func Poison(data []byte) bool {
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
		if r.Uint32() != 'P'|'2'<<8|'B'<<16|3<<24 || cells > uint64(r.Remaining()) {
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
		escapedLines := r.Uvarint()
		r.Uvarint()                            // cells with escaped or float64 lines
		r.Uvarint()                            // their float64 segments
		firstLine := len(data) - r.Remaining() // the first escaped line's slope
		for n := escapedLines; n > 0; n-- {
			r.Float64()
			r.Float64()
		}
		r.Varint()  // first start
		r.Uvarint() // its length
		tag := r.Uint32()
		if tag == 1<<31|1 {
			r.Float64() // a float64 value at Start
		}
		pos := len(data) - r.Remaining()
		if r.Uint32(); r.Err() != nil {
			continue
		}
		if tag == 1<<31 {
			binary.LittleEndian.PutUint64(data[firstLine:], math.Float64bits(math.NaN()))
		} else {
			binary.LittleEndian.PutUint32(data[pos:], math.Float32bits(float32(math.NaN())))
		}
		return true
	}
}
