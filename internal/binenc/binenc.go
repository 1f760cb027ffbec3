// Package binenc provides the tiny framed binary encoding shared by every
// serializable structure in histburst.
//
// Values are appended to a growing buffer as fixed little-endian scalars or
// uvarint-length-prefixed blobs. The Reader mirrors the Writer and carries a
// sticky error so call sites can decode a whole record and check a single
// error at the end, in the style of bufio.Scanner.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt reports malformed input.
var ErrCorrupt = errors.New("binenc: corrupt input")

// Writer accumulates an encoded record.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded record.
func (w *Writer) Bytes() []byte { return w.buf }

// Byte appends a single raw byte.
func (w *Writer) Byte(v byte) {
	w.buf = append(w.buf, v)
}

// Uint64 appends a fixed 8-byte value.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Uint32 appends a fixed 4-byte value.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Int64 appends a fixed 8-byte signed value.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Uvarint appends a varint-encoded count.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a varint-encoded signed value.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Float64 appends an IEEE-754 encoded float.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Bool appends one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// BytesBlob appends a length-prefixed blob.
func (w *Writer) BytesBlob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader decodes a record written by Writer. Methods return zero values
// after the first error; check Err (or use Close) once at the end.
type Reader struct {
	buf      []byte
	off      int
	err      error
	overlong bool
}

// NewReader wraps an encoded record.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Overlong reports whether a varint read so far took more bytes than its
// value needs. Like encoding/binary, the Reader decodes 0x80 0x00 as 0; a
// decoder that accepts one encoding only refuses what this reports.
func (r *Reader) Overlong() bool { return r.overlong }

// Close verifies the record decoded cleanly and completely.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, r.off)
	}
}

// Byte reads a single raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("byte")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Uint64 reads a fixed 8-byte value.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Uint32 reads a fixed 4-byte value.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail("uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Int64 reads a fixed 8-byte signed value.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Uvarint reads a varint-encoded count.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.advance(n)
	return v
}

// Varint reads a varint-encoded signed value.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.advance(n)
	return v
}

// advance steps past an n-byte varint, noting it when it is overlong: when
// its last byte, which holds its top seven bits, is zero.
func (r *Reader) advance(n int) {
	r.off += n
	if n > 1 && r.buf[r.off-1] == 0 {
		r.overlong = true
	}
}

// Float64 reads an IEEE-754 encoded float.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bool reads one byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("bool")
		return false
	}
	v := r.buf[r.off]
	r.off++
	return v != 0
}

// BytesBlob reads a length-prefixed blob. The result aliases the input.
func (r *Reader) BytesBlob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)-r.off) < n {
		r.fail("blob")
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Len reads a count and validates it against a sane ceiling so corrupt
// input cannot trigger huge allocations.
func (r *Reader) Len(max uint64) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > max {
		r.err = fmt.Errorf("%w: implausible length %d (max %d)", ErrCorrupt, n, max)
		return 0
	}
	return int(n)
}

// Remaining returns how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// SliceLen reads an element count for a slice whose elements each occupy at
// least minElemBytes of the remaining input. Beyond the ceiling check of
// Len, it rejects counts the remaining bytes cannot possibly satisfy, so a
// short corrupt record cannot make the caller allocate a multi-GB slice
// before the first element decode fails.
func (r *Reader) SliceLen(max uint64, minElemBytes int) int {
	n := r.Len(max)
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > r.Remaining()/minElemBytes {
		r.err = fmt.Errorf("%w: length %d exceeds %d remaining bytes (≥%d each)",
			ErrCorrupt, n, r.Remaining(), minElemBytes)
		return 0
	}
	return n
}
