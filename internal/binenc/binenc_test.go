package binenc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Uint64(42)
	w.Int64(-7)
	w.Uvarint(300)
	w.Varint(-12345)
	w.Float64(math.Pi)
	w.Bool(true)
	w.Bool(false)
	w.BytesBlob([]byte("hello"))
	w.BytesBlob(nil)

	r := NewReader(w.Bytes())
	if got := r.Uint64(); got != 42 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := r.Int64(); got != -7 {
		t.Errorf("Int64 = %d", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Errorf("Float64 = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool order wrong")
	}
	if got := string(r.BytesBlob()); got != "hello" {
		t.Errorf("BytesBlob = %q", got)
	}
	if got := r.BytesBlob(); len(got) != 0 {
		t.Errorf("empty blob = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestTruncation(t *testing.T) {
	var w Writer
	w.Uint64(1)
	w.BytesBlob([]byte("abcdef"))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Uint64()
		r.BytesBlob()
		if err := r.Close(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: Close = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	var w Writer
	w.Uint64(1)
	w.Uint64(2)
	r := NewReader(w.Bytes())
	r.Uint64()
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Close with trailing = %v", err)
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uint64() // fails
	// Everything after the failure returns zero values without panicking.
	if r.Int64() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.Float64() != 0 || r.Bool() || r.BytesBlob() != nil {
		t.Fatal("post-error reads not zero")
	}
	if r.Err() == nil {
		t.Fatal("Err not sticky")
	}
}

func TestLenGuard(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 40)
	r := NewReader(w.Bytes())
	if got := r.Len(1000); got != 0 || r.Err() == nil {
		t.Fatalf("Len accepted implausible value: %d, %v", got, r.Err())
	}
	var w2 Writer
	w2.Uvarint(7)
	r2 := NewReader(w2.Bytes())
	if got := r2.Len(1000); got != 7 || r2.Err() != nil {
		t.Fatalf("Len(7) = %d, %v", got, r2.Err())
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, fl float64, b bool, blob []byte) bool {
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN; use zero for comparability
		}
		var w Writer
		w.Uint64(u)
		w.Varint(i)
		w.Float64(fl)
		w.Bool(b)
		w.BytesBlob(blob)
		r := NewReader(w.Bytes())
		ok := r.Uint64() == u && r.Varint() == i && r.Float64() == fl && r.Bool() == b
		got := r.BytesBlob()
		if len(got) != len(blob) {
			return false
		}
		for j := range got {
			if got[j] != blob[j] {
				return false
			}
		}
		return ok && r.Close() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUint32RoundTrip(t *testing.T) {
	var w Writer
	w.Uint32(0)
	w.Uint32(0xdeadbeef)
	w.Uint32(math.MaxUint32)
	r := NewReader(w.Bytes())
	for _, want := range []uint32{0, 0xdeadbeef, math.MaxUint32} {
		if got := r.Uint32(); got != want {
			t.Errorf("Uint32 = %08x, want %08x", got, want)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncated reads fail cleanly.
	short := NewReader(w.Bytes()[:2])
	short.Uint32()
	if !errors.Is(short.Err(), ErrCorrupt) {
		t.Fatalf("short Uint32 err = %v", short.Err())
	}
}

func TestUintNRoundTrip(t *testing.T) {
	var w Writer
	vals := []struct {
		v uint64
		n int
	}{{0, 0}, {0x7fc0, 2}, {0xabcdef, 3}, {0xdeadbeef, 4}, {math.MaxUint64, 8}}
	for _, c := range vals {
		w.UintN(c.v, c.n)
		w.Byte(0x5a) // a neighbour the field must not reach into
	}
	if want := 0 + 2 + 3 + 4 + 8 + len(vals); len(w.Bytes()) != want {
		t.Fatalf("%d bytes written, want %d", len(w.Bytes()), want)
	}
	r := NewReader(w.Bytes())
	for _, c := range vals {
		if got := r.UintN(c.n); got != c.v {
			t.Errorf("UintN(%d) = %x, want %x", c.n, got, c.v)
		}
		if b := r.Byte(); b != 0x5a {
			t.Fatalf("after a %d-byte field: byte %x, want 5a", c.n, b)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	short := NewReader([]byte{1, 2})
	short.UintN(3)
	if !errors.Is(short.Err(), ErrCorrupt) {
		t.Fatalf("short UintN err = %v", short.Err())
	}
}

func TestRemaining(t *testing.T) {
	var w Writer
	w.Uint32(1)
	w.BytesBlob([]byte("abc"))
	r := NewReader(w.Bytes())
	if got := r.Remaining(); got != 8 {
		t.Fatalf("Remaining = %d, want 8", got)
	}
	r.Uint32()
	if got := r.Remaining(); got != 4 {
		t.Fatalf("Remaining after Uint32 = %d, want 4", got)
	}
	r.BytesBlob()
	if got := r.Remaining(); got != 0 {
		t.Fatalf("Remaining at end = %d", got)
	}
}

func TestSliceLen(t *testing.T) {
	// 3 elements of 2 bytes each actually present.
	var w Writer
	w.Uvarint(3)
	w.Uint32(0)
	w.Uint32(0) // 8 bytes of payload ≥ 3×2
	r := NewReader(w.Bytes())
	if got := r.SliceLen(100, 2); got != 3 || r.Err() != nil {
		t.Fatalf("SliceLen = %d err=%v", got, r.Err())
	}

	// A count the remaining bytes cannot satisfy is rejected before any
	// allocation-sized value escapes.
	var w2 Writer
	w2.Uvarint(1 << 30)
	w2.Uint32(0)
	r2 := NewReader(w2.Bytes())
	if got := r2.SliceLen(1<<40, 2); got != 0 || !errors.Is(r2.Err(), ErrCorrupt) {
		t.Fatalf("oversized SliceLen = %d err=%v", got, r2.Err())
	}

	// The ceiling still applies independently.
	var w3 Writer
	w3.Uvarint(50)
	r3 := NewReader(append(w3.Bytes(), make([]byte, 200)...))
	if got := r3.SliceLen(10, 1); got != 0 || !errors.Is(r3.Err(), ErrCorrupt) {
		t.Fatalf("over-ceiling SliceLen = %d err=%v", got, r3.Err())
	}

	// minElemBytes below 1 is treated as 1.
	var w4 Writer
	w4.Uvarint(2)
	r4 := NewReader(append(w4.Bytes(), 0, 0))
	if got := r4.SliceLen(10, 0); got != 2 || r4.Err() != nil {
		t.Fatalf("minElemBytes=0: %d err=%v", got, r4.Err())
	}
}
