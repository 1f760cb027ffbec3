package histburst

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"histburst/internal/binenc"
)

// FuzzLoad ensures the detector loader never panics on arbitrary bytes and
// that anything it accepts supports queries and re-saving.
func FuzzLoad(f *testing.F) {
	det, err := New(8, WithPBE2(2), WithSketchDims(2, 8))
	if err != nil {
		f.Fatal(err)
	}
	det.Append(1, 10)
	det.Append(3, 20)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("HBD\x01 nearly"))
	f.Add(bytes.Repeat([]byte{0x7f}, 128))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := d.Burstiness(1, 15, 5); err != nil {
			t.Fatalf("loaded detector cannot query: %v", err)
		}
		var out bytes.Buffer
		if err := d.Save(&out); err != nil {
			t.Fatalf("loaded detector cannot re-save: %v", err)
		}
	})
}

// FuzzDetectorLoad targets the full detector decode path: valid HBD2 blobs,
// retired-generation HBD1 blobs (must be refused, not decoded), their
// truncations, and bit flips. Load must never panic, never allocate
// unboundedly, and anything accepted must survive query and re-save.
func FuzzDetectorLoad(f *testing.F) {
	for _, opts := range [][]Option{
		{WithPBE2(2), WithSketchDims(2, 8)},
		{WithPBE1(100, 10), WithSketchDims(2, 4)},
		{WithPBE2(2), WithoutEventIndex()},
	} {
		det, err := New(8, opts...)
		if err != nil {
			f.Fatal(err)
		}
		det.Append(1, 10)
		det.Append(3, 25)
		det.Append(1, 40)
		var v2 bytes.Buffer
		if err := det.Save(&v2); err != nil {
			f.Fatal(err)
		}
		v1 := saveHBD1(f, det)
		f.Add(v2.Bytes())
		f.Add(v1)
		for _, cut := range []int{1, 5, 9, len(v1) / 2, len(v1) - 1} {
			f.Add(v1[:cut])
			f.Add(v2.Bytes()[:cut])
		}
		flipped := append([]byte(nil), v2.Bytes()...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("HBD\x02 nearly"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := d.Burstiness(1, 30, 10); err != nil {
			t.Fatalf("loaded detector cannot query: %v", err)
		}
		var out bytes.Buffer
		if err := d.Save(&out); err != nil {
			t.Fatalf("loaded detector cannot re-save: %v", err)
		}
		if _, err := Load(&out); err != nil {
			t.Fatalf("re-saved detector does not load: %v", err)
		}
	})
}

// FuzzInspect holds the header-only verifier to Decode: it never panics; what
// it refuses Decode refuses; what Decode accepts it accepts, reporting the
// same parameters and element count; and what it accepts carries the magic
// and a checksum that holds — so the one thing left for Decode to refuse is a
// summary malformed under a valid checksum (seeded below).
func FuzzInspect(f *testing.F) {
	for _, opts := range [][]Option{
		{WithPBE2(2), WithSketchDims(2, 8)},
		{WithPBE1(100, 10), WithSketchDims(2, 4)},
		{WithPBE2(2), WithoutEventIndex()},
	} {
		det, err := New(8, opts...)
		if err != nil {
			f.Fatal(err)
		}
		det.Append(1, 10)
		det.Append(3, 25)
		det.Append(1, 40)
		var buf bytes.Buffer
		if err := det.Save(&buf); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		f.Add(saveHBD1(f, det))
		for _, cut := range []int{1, 5, 9, len(data) / 2, len(data) - 1} {
			f.Add(data[:cut])
		}
		for _, at := range []int{6, 12, len(data) / 2, len(data) - 2} {
			flipped := append([]byte(nil), data...)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
		// Header intact, summary overwritten, checksum recomputed.
		garbled := append([]byte(nil), data...)
		body := garbled[:len(garbled)-4]
		for i := len(body) - len(body)/3; i < len(body); i++ {
			body[i] = 0xff
		}
		binary.LittleEndian.PutUint32(garbled[len(body):], crc32.Checksum(body, crcTable))
		f.Add(garbled)
	}
	f.Add([]byte{})
	f.Add([]byte("HBD\x02 nearly"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, ierr := Inspect(data)
		d, derr := Decode(data)
		if ierr != nil {
			if derr == nil {
				t.Fatalf("Inspect refuses what Decode accepts: %v", ierr)
			}
			return
		}
		if len(data) < 4 || !bytes.Equal(binenc.NewReader(data).BytesBlob(), detectorMagicV2) ||
			crc32.Checksum(data[:len(data)-4], crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
			t.Fatalf("Inspect accepts %d bytes without the magic or a checksum that holds", len(data))
		}
		if derr != nil {
			return // the summary's fault; the header and the bytes are sound
		}
		p, ok := d.Params()
		if h.PBE2 != ok || h.Params != p || h.N != d.N() {
			t.Fatalf("Inspect reports %+v, the decoded detector %+v (pbe2 %v) with %d elements", h, p, ok, d.N())
		}
	})
}

// FuzzLoadSingle does the same for single-event summaries.
func FuzzLoadSingle(f *testing.F) {
	s, err := NewSingle(WithPBE2(2))
	if err != nil {
		f.Fatal(err)
	}
	s.Append(3)
	s.Append(9)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("HBS\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSingle(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := s.Burstiness(5, 2); err != nil {
			t.Fatalf("loaded summary cannot query: %v", err)
		}
	})
}

// FuzzDetectorAppend throws adversarial id/timestamp pairs (including
// out-of-order and extreme values) at a detector and checks invariants.
func FuzzDetectorAppend(f *testing.F) {
	f.Add(uint64(1), int64(10), uint64(2), int64(5), uint64(3), int64(-7))
	f.Add(uint64(0), int64(0), uint64(1<<63-1), int64(1<<40), uint64(7), int64(1))
	// Unix-second and Unix-millisecond clocks (internal/pbe2's
	// FuzzPBE2OneSided explores these origins against the exact staircase).
	f.Add(uint64(2), int64(1.7e9), uint64(2), int64(1.7e9)+1, uint64(2), int64(1.7e9)+90)
	f.Add(uint64(2), int64(1.7e12), uint64(2), int64(1.7e12)+1, uint64(2), int64(1.7e12)+90)

	f.Fuzz(func(t *testing.T, e1 uint64, t1 int64, e2 uint64, t2 int64, e3 uint64, t3 int64) {
		det, err := New(16, WithPBE2(2), WithSketchDims(2, 8))
		if err != nil {
			t.Fatal(err)
		}
		det.Append(e1, t1)
		det.Append(e2, t2)
		det.Append(e3, t3)
		det.Finish()
		if det.N() != 3 {
			t.Fatalf("N = %d", det.N())
		}
		// Estimates are finite and monotone in t.
		prev := -1.0
		for _, q := range []int64{t1 - 1, t1, t2, t3, det.MaxTime() + 1} {
			v := det.CumulativeFrequency(e1%16, q)
			if v < 0 || v > 3 {
				t.Fatalf("F estimate out of range: %v", v)
			}
			_ = prev
		}
		if _, err := det.Burstiness(e2, det.MaxTime(), 100); err != nil {
			t.Fatal(err)
		}
	})
}
