package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Binary stream format (little-endian):
//
//	magic   uint32  = 0x48425354 ("HBST")
//	version uint16  = 1
//	flags   uint16  (reserved, zero)
//	count   uint64
//	count × { event uvarint, timeDelta varint }
//
// Timestamps are delta-encoded against the previous element, which makes a
// sorted stream of seconds-granularity data compress to a couple of bytes per
// element. A trailing CRC is intentionally omitted: the tools operate on
// local files and validation is structural (magic, version, count, order).

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
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], codecMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], codecVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], 0)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(s)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [2 * binary.MaxVarintLen64]byte
	prev := int64(0)
	for _, el := range s {
		n := binary.PutUvarint(buf[:], el.Event)
		n += binary.PutVarint(buf[n:], el.Time-prev)
		prev = el.Time
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
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

// Read deserializes a stream previously written by Write.
//
//histburst:decoder
func Read(r io.Reader) (Stream, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	const maxPrealloc = 1 << 22 // cap preallocation so a hostile header can't OOM us
	capHint := count
	if capHint > maxPrealloc {
		capHint = maxPrealloc
	}
	s := make(Stream, 0, capHint) //histburst:allow decodersafety -- capacity hint clamped to maxPrealloc; growth is append-driven
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		e, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at element %d: %v", ErrBadFormat, i, err)
		}
		d, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at element %d: %v", ErrBadFormat, i, err)
		}
		if d < 0 && i > 0 {
			return nil, fmt.Errorf("%w: negative time delta at element %d", ErrBadFormat, i)
		}
		t := prev + d
		if i > 0 && t < prev {
			return nil, fmt.Errorf("%w: timestamp overflow at element %d", ErrBadFormat, i)
		}
		prev = t
		s = append(s, Element{Event: e, Time: t})
	}
	return s, nil
}
