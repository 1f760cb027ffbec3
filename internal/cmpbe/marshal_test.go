package cmpbe

import (
	"runtime"
	"strings"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/pbe"
)

// encoded returns a level's serialized form.
func encoded(t testing.TB, l interface{ Encode(*binenc.Writer) error }) []byte {
	t.Helper()
	var w binenc.Writer
	if err := l.Encode(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// decodeWhole decodes data as exactly one level under gamma.
func decodeWhole(data []byte, gamma float64) (*Sketch, error) {
	r := binenc.NewReader(data)
	v, err := DecodeLevel(r, gamma)
	if err != nil {
		return nil, err
	}
	return v, r.Close()
}

func TestSketchMarshalRoundTrip(t *testing.T) {
	s, err := New(3, 32, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := mixedStream(5, 5000, 40)
	for _, el := range data {
		s.Append(el.Event, el.Time)
	}
	s.Finish()

	blob := encoded(t, s)
	got, err := decodeWhole(blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() || got.MaxTime() != s.MaxTime() || got.Bytes() != s.Bytes() {
		t.Fatal("metadata mismatch")
	}
	for e := uint64(0); e < 40; e += 3 {
		for q := int64(0); q <= s.MaxTime(); q += 131 {
			if got.EstimateF(e, q) != s.EstimateF(e, q) {
				t.Fatalf("EstimateF differs at e=%d t=%d", e, q)
			}
			if got.Burstiness(e, q, pbe.MustSpan(50)) != s.Burstiness(e, q, pbe.MustSpan(50)) {
				t.Fatalf("Burstiness differs at e=%d t=%d", e, q)
			}
		}
	}
	if string(encoded(t, got)) != string(blob) {
		t.Fatal("the decoded sketch encodes to other bytes")
	}
}

func TestDirectMarshalRoundTrip(t *testing.T) {
	d, _ := NewDirect(8, 1)
	for tm := int64(0); tm < 2000; tm++ {
		d.Append(uint64(tm%8), tm)
	}
	d.Finish()
	blob := encoded(t, d)
	if !strings.HasPrefix(string(blob), "\x04DIR\x01\x08") {
		t.Fatalf("a collision-free level is stored as % x…, want its own record and width", blob[:6])
	}
	got, err := decodeWhole(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CollisionFree() || got.N() != d.N() || got.MaxTime() != d.MaxTime() {
		t.Fatal("metadata mismatch")
	}
	if string(encoded(t, got)) != string(blob) {
		t.Fatal("the decoded level encodes to other bytes")
	}
	for e := uint64(0); e < 8; e++ {
		for q := int64(0); q < 2000; q += 97 {
			if got.EstimateF(e, q) != d.EstimateF(e, q) {
				t.Fatalf("estimate differs e=%d t=%d", e, q)
			}
		}
	}
}

func TestUnmarshalAnyDispatch(t *testing.T) {
	s, _ := New(2, 4, 1, 2)
	s.Append(1, 10)
	d, _ := NewDirect(4, 2)
	d.Append(1, 10)

	// Two levels back to back, as a tree stores them: each decode leaves the
	// reader at the next.
	var w binenc.Writer
	if err := s.Encode(&w); err != nil {
		t.Fatal(err)
	}
	if err := d.Encode(&w); err != nil {
		t.Fatal(err)
	}
	r := binenc.NewReader(w.Bytes())
	if v, err := DecodeLevel(r, 2); err != nil {
		t.Fatal(err)
	} else if dd, dw := v.Dims(); v.CollisionFree() || dd != 2 || dw != 4 || v.Seed() != 1 {
		t.Fatalf("sketch decoded as a %d×%d level seeded %d (collision-free %t)", dd, dw, v.Seed(), v.CollisionFree())
	}
	if v, err := DecodeLevel(r, 2); err != nil {
		t.Fatal(err)
	} else if dd, dw := v.Dims(); !v.CollisionFree() || dd != 1 || dw != 4 {
		t.Fatalf("collision-free level decoded as a %d×%d sketch seeded %d", dd, dw, v.Seed())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeWhole([]byte("junk"), 2); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestUnmarshalSketchRejectsCorrupt(t *testing.T) {
	s, _ := New(2, 4, 1, 2)
	s.Append(1, 10)
	d, _ := NewDirect(4, 2)
	d.Append(1, 10)
	for _, blob := range [][]byte{encoded(t, s), encoded(t, d)} {
		for cut := 0; cut < len(blob); cut++ {
			if _, err := decodeWhole(blob[:cut], 2); err == nil {
				t.Fatalf("%q cut=%d accepted", blob[:5], cut)
			}
		}
	}
	// A 20-byte record claiming 2²⁴ rows of one cell: refused by its length
	// before a hash function is drawn for any row (640 MB of them).
	var w binenc.Writer
	w.BytesBlob(sketchMagic)
	w.Uvarint(1 << 24)
	w.Uvarint(1)
	w.Int64(1)
	w.Varint(0)
	w.Varint(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeWhole(w.Bytes(), 2)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 2²⁴-row header with no cells accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("refusing a %d-byte record allocated %d bytes", len(w.Bytes()), alloc)
	}
}

// TestDecodeHoldsCellsToTheLevel: every element of a level lands in one
// cell of each row, so a row whose cells count another total than the
// level's n belongs to some other level — refused, where the per-cell format
// had nothing to check a cell against. Cells under another γ than the level
// is loaded under are refused too.
func TestDecodeHoldsCellsToTheLevel(t *testing.T) {
	build := func(extra bool) (*Sketch, *Sketch) {
		s, _ := New(2, 4, 1, 2)
		d, _ := NewDirect(4, 2)
		for i := int64(0); i < 40; i++ {
			s.Append(uint64(i%7), 10+i)
			d.Append(uint64(i%7), 10+i)
		}
		if extra {
			s.Append(3, 50)
			d.Append(3, 50)
		}
		return s, d
	}
	s, d := build(false)
	s2, d2 := build(true)
	// The longer level's cells under the shorter level's header: same header
	// length (n is 40 or 41, one varint byte), another n.
	splice := func(header, cells []byte) []byte {
		at := strings.Index(string(cells), "P2B\x05")
		if at < 0 || at != strings.Index(string(header), "P2B\x05") {
			t.Fatal("fixture: cell blocks not where expected")
		}
		return append(append([]byte(nil), header[:at]...), cells[at:]...)
	}
	for name, data := range map[string][]byte{
		"sketch": splice(encoded(t, s), encoded(t, s2)),
		"direct": splice(encoded(t, d), encoded(t, d2)),
	} {
		_, err := decodeWhole(data, 2)
		if err == nil || !strings.Contains(err.Error(), "count 41 arrivals, the level 40") {
			t.Errorf("%s: cells of a 41-element level under a 40-element header: %v", name, err)
		}
	}
	for name, data := range map[string][]byte{"sketch": encoded(t, s), "direct": encoded(t, d)} {
		if _, err := decodeWhole(data, 3); err == nil || !strings.Contains(err.Error(), "cells under gamma 2 in a level under gamma 3") {
			t.Errorf("%s: cells under γ 2 loaded under 3: %v", name, err)
		}
	}
}
