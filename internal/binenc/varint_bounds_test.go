package binenc

import (
	"bytes"
	"math"
	"testing"
)

// Boundary-value vectors for the varint/uvarint wire forms. Every framed
// decoder in the tree — the WAL records, the manifest, and the HBP1 frame
// payloads — funnels through these two read paths, so the edges are pinned
// here once: maximum-width encodings, every truncated prefix, overflowing
// continuations, and the non-canonical (overlong) encodings the stdlib
// accepts by design.

func TestUvarintBoundaryVectors(t *testing.T) {
	cases := []struct {
		name  string
		input []byte
		want  uint64
		ok    bool
	}{
		{"zero", []byte{0x00}, 0, true},
		{"one-byte max", []byte{0x7f}, 0x7f, true},
		{"two-byte min", []byte{0x80, 0x01}, 0x80, true},
		{"max uint64 (10 bytes)", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, math.MaxUint64, true},
		{"overflow: 10th byte too large", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, 0, false},
		{"overflow: 11 continuation bytes", bytes.Repeat([]byte{0x80}, 11), 0, false},
		{"empty input", nil, 0, false},
		// Overlong-but-terminated encodings decode to their value; the
		// writers never emit them, but a decoder must not reject or
		// misparse a frame that contains one.
		{"overlong zero (2 bytes)", []byte{0x80, 0x00}, 0, true},
		{"overlong 1 (3 bytes)", []byte{0x81, 0x80, 0x00}, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.input)
			got := r.Uvarint()
			if tc.ok {
				if err := r.Err(); err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if got != tc.want {
					t.Fatalf("got %d, want %d", got, tc.want)
				}
			} else if r.Err() == nil {
				t.Fatalf("decoded %d from invalid input", got)
			}
		})
	}

	// Every strict prefix of the widest encoding is a truncation error,
	// and the error is sticky: follow-up reads yield zero values.
	max := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	for cut := 0; cut < len(max); cut++ {
		r := NewReader(max[:cut])
		if v := r.Uvarint(); r.Err() == nil {
			t.Fatalf("prefix of %d bytes decoded to %d", cut, v)
		}
		if v := r.Uvarint(); v != 0 {
			t.Fatalf("read after sticky error returned %d", v)
		}
	}
}

func TestVarintBoundaryVectors(t *testing.T) {
	// The extremes and the zigzag neighbourhood around zero round-trip at
	// their exact widths.
	roundTrip := []struct {
		v     int64
		width int
	}{
		{0, 1}, {-1, 1}, {1, 1}, {63, 1}, {-64, 1}, {64, 2}, {-65, 2},
		{math.MaxInt64, 10}, {math.MinInt64, 10}, {math.MinInt64 + 1, 10},
		{math.MaxInt64 / 2, 9}, {math.MinInt64 / 2, 9},
	}
	for _, tc := range roundTrip {
		var w Writer
		w.Varint(tc.v)
		enc := w.Bytes()
		if len(enc) != tc.width {
			t.Fatalf("%d encoded to %d bytes, want %d", tc.v, len(enc), tc.width)
		}
		r := NewReader(enc)
		if got := r.Varint(); got != tc.v || r.Err() != nil {
			t.Fatalf("%d round-tripped to %d (err %v)", tc.v, got, r.Err())
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%d left trailing bytes: %v", tc.v, err)
		}
	}

	bad := [][]byte{
		nil,
		{0x80},
		bytes.Repeat([]byte{0xff}, 9), // truncated max-width
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, // overflow
		bytes.Repeat([]byte{0x80}, 11),                               // runaway continuation
	}
	for i, enc := range bad {
		r := NewReader(enc)
		if v := r.Varint(); r.Err() == nil {
			t.Fatalf("case %d: decoded %d from invalid input", i, v)
		}
	}
}

// TestUvarintWidthLadder pins the encoded width at every 7-bit boundary —
// the property the SliceLen minimum-bytes-per-element guard relies on.
func TestUvarintWidthLadder(t *testing.T) {
	for width := 1; width <= 9; width++ {
		lo := uint64(0)
		if width > 1 {
			lo = 1 << uint(7*(width-1))
		}
		hi := uint64(1)<<uint(7*width) - 1
		for _, v := range []uint64{lo, hi} {
			var w Writer
			w.Uvarint(v)
			if got := len(w.Bytes()); got != width {
				t.Fatalf("%d encoded to %d bytes, want %d", v, got, width)
			}
		}
	}
	var w Writer
	w.Uvarint(math.MaxUint64)
	if got := len(w.Bytes()); got != 10 {
		t.Fatalf("max uint64 encoded to %d bytes, want 10", got)
	}
}

// TestOverlong: Overlong reports exactly the varints longer than the
// writer's form of their value — every shortest form, and each of its
// extensions by zero groups, read as a count and as a signed value — and
// stays set once it has.
func TestOverlong(t *testing.T) {
	var values []uint64
	for width := 0; width < 64; width += 7 {
		values = append(values, 1<<width-1, 1<<width, 1<<width+1)
	}
	values = append(values, math.MaxUint64)
	for _, v := range values {
		var w Writer
		w.Uvarint(v)
		for enc, pad := w.Bytes(), 0; len(enc) <= 10; pad++ {
			r := NewReader(enc)
			if got := r.Uvarint(); r.Err() != nil || got != v || r.Overlong() != (pad > 0) {
				t.Fatalf("Uvarint of %x: %d (err %v, overlong %v), want %d, %d byte(s) past the shortest form", enc, got, r.Err(), r.Overlong(), v, pad)
			}
			r = NewReader(enc)
			if got := r.Varint(); r.Err() != nil || uint64(got)<<1^uint64(got>>63) != v || r.Overlong() != (pad > 0) {
				t.Fatalf("Varint of %x: %d (err %v, overlong %v), want zigzag %d, %d byte(s) past the shortest form", enc, got, r.Err(), r.Overlong(), v, pad)
			}
			enc = append(append([]byte(nil), enc...), 0)
			enc[len(enc)-2] |= 0x80
		}
	}
	r := NewReader([]byte{0x80, 0x00, 0x02, 0x05, 0x06})
	if r.Uvarint(); !r.Overlong() {
		t.Fatal("0x80 0x00 is not reported")
	}
	if n := r.SliceLen(8, 1); n != 2 || !r.Overlong() || r.Err() != nil {
		t.Fatal("a shortest varint after an overlong one cleared the report")
	}
	if r := NewReader([]byte{0x80, 0x00}); r.SliceLen(8, 1) != 0 || !r.Overlong() {
		t.Fatal("SliceLen does not report an overlong count")
	}
}
