// Package pbe2test forges PBE-2 summaries no builder would emit, for the
// tests of the decoders and stores that must refuse them.
package pbe2test

import (
	"bytes"

	"histburst/internal/binenc"
)

// Unsort finds, in any bytes that embed marshalled PBE-2 summaries (a
// detector file, a segment file), the first summary with two or more
// segments and makes its second segment start before its first: it sets the
// sign bit of that segment's zigzag start delta, one bit in place, so every
// length prefix around it still holds. It reports whether it found one. The
// caller recomputes whatever checksum covers the bytes.
func Unsort(data []byte) bool {
	blobMagic := []byte{4, 'P', 'B', '2', 1}
	for at := 0; ; at++ {
		i := bytes.Index(data[at:], blobMagic)
		if i < 0 {
			return false
		}
		at += i
		r := binenc.NewReader(data[at:])
		r.BytesBlob() // magic
		r.Float64()   // gamma
		r.Uvarint()   // maxVerts
		r.Varint()    // count
		r.Varint()    // lastT
		r.Varint()    // prevF
		r.Bool()      // started
		r.Bool()      // done
		r.Varint()    // outOfOrder
		if n := r.Uvarint(); n < 2 {
			continue
		}
		for k := 0; k < 2; k++ { // A, B, ΔStart, len of segment 0; A, B of segment 1
			r.Float64()
			r.Float64()
			if k == 0 {
				r.Varint()
				r.Varint()
			}
		}
		pos := len(data) - r.Remaining()
		if delta := r.Varint(); r.Err() != nil || delta < 0 {
			continue
		}
		data[pos] |= 1
		return true
	}
}
