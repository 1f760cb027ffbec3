package stream

import (
	"errors"
	"fmt"
	"io"
	"os"

	"histburst/internal/binenc"
)

// An element run is how every histburst format stores a sequence of
// elements — the HBST file below, the HBP1 APPEND frame and the WAL record:
// per element, the event id as a uvarint, then the time as a varint delta
// from the previous element's (from 0 for the first). Deltas are taken
// modulo 2⁶⁴, so any Stream round-trips — unsorted, or spanning more than
// 2⁶³. A run carries no count: each format writes its own and bounds it, and
// each decides whether a run must be in order.

// MinElemBytes is the fewest bytes one element of a run occupies: one event
// byte and one delta byte. Decoders bound a decoded count by it.
const MinElemBytes = 2

// AppendRun appends s to w as an element run.
func AppendRun(w *binenc.Writer, s Stream) {
	prev := int64(0)
	for _, el := range s {
		w.Uvarint(el.Event)
		w.Varint(el.Time - prev)
		prev = el.Time
	}
}

// ReadRun fills s with the next len(s) elements of the element run in r.
// Errors are r's, sticky: check r.Err or r.Close after.
//
//histburst:decoder
func ReadRun(r *binenc.Reader, s Stream) {
	prev := int64(0)
	for i := range s {
		s[i].Event = r.Uvarint()
		prev += r.Varint()
		s[i].Time = prev
	}
}

// Binary stream format (little-endian):
//
//	magic   uint32  = 0x48425354 ("HBST")
//	version uint16  = 1
//	flags   uint16  (reserved, zero)
//	count   uint64
//	count elements as an element run, time-sorted, and nothing after
//
// A trailing CRC is intentionally omitted: the tools operate on local files
// and validation is structural (magic, version, count, order).

const (
	codecMagic   = 0x48425354
	codecVersion = 1
)

// ErrBadFormat reports a malformed or unsupported serialized stream.
var ErrBadFormat = errors.New("stream: bad serialized format")

// Write serializes the stream to w in the binary format above. The stream
// must be sorted (Validate passes); Write checks and refuses otherwise so a
// corrupted file can never be produced.
func Write(w io.Writer, s Stream) error {
	if err := s.Validate(); err != nil {
		return err
	}
	var enc binenc.Writer
	enc.Uint32(codecMagic)
	enc.Uint32(codecVersion) // the u16 version, then the zero u16 flags
	enc.Uint64(uint64(len(s)))
	AppendRun(&enc, s)
	_, err := w.Write(enc.Bytes())
	return err
}

// ReadFile reads the stream file at path, written by Write.
func ReadFile(path string) (Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read deserializes a stream previously written by Write. It refuses bytes
// after the last element and a run whose times decrease.
//
//histburst:decoder
func Read(in io.Reader) (Stream, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	r := binenc.NewReader(data)
	magic, version, count := r.Uint32(), uint16(r.Uint32()), r.Uint64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	if magic != codecMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	if count > uint64(r.Remaining()/MinElemBytes) {
		return nil, fmt.Errorf("%w: %d elements cannot fit in %d bytes", ErrBadFormat, count, r.Remaining())
	}
	s := make(Stream, count) //histburst:allow decodersafety -- count is bounded by the remaining bytes just above
	ReadRun(r, s)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return s, nil
}
