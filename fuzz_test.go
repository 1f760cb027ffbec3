package histburst

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
	"histburst/internal/pbe2/pbe2test"
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

// FuzzDetectorLoad targets the full detector decode path: valid HBD9 blobs
// (one of them an index with levels under both γs), retired-generation HBD1,
// HBD6, HBD7 and HBD8 blobs (must be refused, not decoded), their truncations, and bit
// flips. Load must never panic, never allocate
// unboundedly, and anything accepted must survive query and re-save — and
// every level must be the size and hashing its height and header call for
// (checkShape), every PBE-2 cell one the search kernels can trust
// (checkSearchable).
func FuzzDetectorLoad(f *testing.F) {
	for _, c := range []struct {
		k    uint64
		opts []Option
	}{
		{8, []Option{WithPBE2(2), WithSketchDims(2, 8)}},
		{64, []Option{WithPBE2(2), WithSketchDims(2, 8)}}, // heights 0, 1 hashed, 2 and — under 4γ — 6
		{8, []Option{WithPBE2(3), WithSketchDims(2, 4)}},
		{1024, []Option{WithPBE2(8)}}, // the benchmark's shape: collision-free levels at heights 0, 4 and 8
	} {
		det, err := New(c.k, c.opts...)
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
		for _, gen := range []byte{6, 7, 8} {
			f.Add(saveOld(f, det, gen))
		}
		for _, blob := range [][]byte{v1, v2.Bytes()} {
			for _, cut := range []int{1, 5, 9, len(blob) / 2, len(blob) - 1} {
				f.Add(blob[:cut])
			}
		}
		flipped := append([]byte(nil), v2.Bytes()...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	f.Add(poisonedCellFile(f))
	f.Add(wrongLeafFile(f))
	f.Add([]byte{})
	f.Add([]byte("HBD\x08 nearly"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Each input twice: as it is, and under a recomputed checksum — the
		// only way a mutated summary gets past the CRC to the cell decoders.
		inputs := [][]byte{data}
		if len(data) > 4 {
			resealed := append([]byte(nil), data...)
			body := resealed[:len(resealed)-4]
			binary.LittleEndian.PutUint32(resealed[len(body):], crc32.Checksum(body, crcTable))
			inputs = append(inputs, resealed)
		}
		for _, in := range inputs {
			d, err := Load(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if _, err := d.Burstiness(1, 30, 10); err != nil {
				t.Fatalf("loaded detector cannot query: %v", err)
			}
			checkShape(t, d)
			checkSearchable(t, d)
			var out bytes.Buffer
			if err := d.Save(&out); err != nil {
				t.Fatalf("loaded detector cannot re-save: %v", err)
			}
			if _, err := Load(&out); err != nil {
				t.Fatalf("re-saved detector does not load: %v", err)
			}
		}
	})
}

// poisonedCellFile is a detector file, checksum valid, one of whose PBE-2
// cells carries a segment whose slope is not a number.
func poisonedCellFile(t testing.TB) []byte {
	t.Helper()
	det, err := New(8, WithPBE2(2), WithSketchDims(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	for burst := int64(0); burst < 4; burst++ {
		for i := 0; i < 12; i++ {
			det.Append(1, 10+burst*50)
		}
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !pbe2test.Poison(data) {
		t.Fatal("fixture: no collision-free level with a PBE-2 cell in the file")
	}
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crcTable))
	return data
}

// TestLoadRejectsUnsearchableCell: a checksum only proves the bytes are the
// ones written. A cell the queries cannot evaluate is refused by name. (A
// cell block stores each start as a distance past the previous end, so the
// out-of-order starts this test forged before HBD4 cannot be written down at
// all; pbe2's TestDecodeBlockRejects covers what still can.)
func TestLoadRejectsUnsearchableCell(t *testing.T) {
	data := poisonedCellFile(t)
	if _, err := Inspect(data); err != nil {
		t.Fatalf("fixture: the verifier rejects the forged file: %v", err)
	}
	_, err := Decode(data)
	if err == nil || !strings.Contains(err.Error(), "pbe2: cell block: cell 1: segment 0 has non-finite coefficients") {
		t.Fatalf("Decode of a poisoned cell: %v, want the pbe2 decoder's refusal", err)
	}
}

// indexLevels lists a detector's summaries with their heights.
func indexLevels(d *Detector) (levels []*cmpbe.Sketch, heights []int) {
	for i := 0; i < d.tree.Levels(); i++ {
		levels = append(levels, d.tree.Level(i).(*cmpbe.Sketch))
	}
	return levels, d.tree.Heights()
}

// checkShape asserts what the decoder promises of every level it lets
// through: a collision-free level has one cell per aggregate id of its
// height, a Count-Min level the header's dimensions and the seed of its
// height — so no id is folded onto another's cell by a level of the wrong
// size — and PBE-2 cells under the γ of their height.
func checkShape(t *testing.T, d *Detector) {
	t.Helper()
	levels, heights := indexLevels(d)
	for i, l := range levels {
		h := heights[i]
		dd, w := l.Dims()
		if l.CollisionFree() {
			if uint64(w) != d.K()>>h {
				t.Fatalf("level %d (height %d): %d cells for %d aggregate ids", i, h, w, d.K()>>h)
			}
		} else if dd != d.cfg.d || w != d.cfg.w || l.Seed() != d.cfg.seed+int64(h)*7919 {
			t.Fatalf("level %d (height %d): %d×%d sketch seeded %d under configuration %d×%d seeded %d",
				i, h, dd, w, l.Seed(), d.cfg.d, d.cfg.w, d.cfg.seed)
		}
		// A level is under the γ its height calls for: the header's below
		// dyadic.SteerHeight, dyadic.SteerGammaFactor times it from there up.
		want := dyadic.SteerGamma(h, d.cfg.gamma)
		if b := l.EventCells(0)[0]; b.Gamma() != want {
			t.Fatalf("level %d (height %d): cells under γ = %v, want %v", i, h, b.Gamma(), want)
		}
	}
}

// checkSearchable asserts the invariants pbe2's decoder promises of every
// cell it lets through, exactly the ones its queries binary-search and
// evaluate by: starts ascend, no segment ends before it starts or after its
// successor starts, coefficients are finite.
func checkSearchable(t *testing.T, d *Detector) {
	t.Helper()
	levels, heights := indexLevels(d)
	for lv, l := range levels {
		for e := uint64(0); e < d.K()>>heights[lv]; e++ {
			for _, b := range l.EventCells(e) {
				segs := b.Segments()
				for i, s := range segs {
					switch {
					case math.IsNaN(s.A) || math.IsInf(s.A, 0) || math.IsNaN(s.Y) || math.IsInf(s.Y, 0):
						t.Fatalf("level %d id %d: segment %d has non-finite coefficients: %+v", lv, e, i, s)
					case s.End < s.Start:
						t.Fatalf("level %d id %d: segment %d ends before it starts: %+v", lv, e, i, s)
					case i > 0 && s.Start < segs[i-1].Start:
						t.Fatalf("level %d id %d: segment %d starts before its predecessor: %+v then %+v", lv, e, i, segs[i-1], s)
					case i > 0 && s.Start < segs[i-1].End:
						t.Fatalf("level %d id %d: segment %d starts before its predecessor ends: %+v then %+v", lv, e, i, segs[i-1], s)
					}
				}
			}
		}
	}
}

// FuzzInspect holds the header-only verifier to Decode: it never panics; what
// it refuses Decode refuses; what Decode accepts it accepts, reporting the
// same parameters and element count; and what it accepts carries the magic
// and a checksum that holds — so the one thing left for Decode to refuse is a
// summary malformed under a valid checksum (seeded below).
func FuzzInspect(f *testing.F) {
	for _, c := range []struct {
		k    uint64
		opts []Option
	}{
		{8, []Option{WithPBE2(2), WithSketchDims(2, 8)}},
		{64, []Option{WithPBE2(2), WithSketchDims(2, 8)}}, // heights 0, 1 hashed, 2 and — under 4γ — 6
		{8, []Option{WithPBE2(3), WithSketchDims(2, 4)}},
		{1024, []Option{WithPBE2(8)}}, // the benchmark's shape: collision-free levels at heights 0, 4 and 8
	} {
		det, err := New(c.k, c.opts...)
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
		for _, gen := range []byte{6, 7, 8} {
			f.Add(saveOld(f, det, gen))
		}
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
	f.Add([]byte("HBD\x08 nearly"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, ierr := Inspect(data)
		d, derr := Decode(data)
		if ierr != nil {
			if derr == nil {
				t.Fatalf("Inspect refuses what Decode accepts: %v", ierr)
			}
			return
		}
		if len(data) < 4 || !bytes.Equal(binenc.NewReader(data).BytesBlob(), detectorMagic) ||
			crc32.Checksum(data[:len(data)-4], crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
			t.Fatalf("Inspect accepts %d bytes without the magic or a checksum that holds", len(data))
		}
		if derr != nil {
			return // the summary's fault; the header and the bytes are sound
		}
		if p := d.Params(); h.Params != p || h.N != d.N() {
			t.Fatalf("Inspect reports %+v, the decoded detector %+v with %d elements", h, p, d.N())
		}
	})
}

// FuzzLoadSingle does the same for single-event summaries: valid files — HBD9
// detector files over one id, empty and with a segment too long for a length
// slot — the refused HBS2 and HBS3 files of the generations before, a
// detector file over two ids, truncations and bit flips. Anything accepted
// must answer queries and survive a save and load unchanged.
func FuzzLoadSingle(f *testing.F) {
	empty, err := NewSingle(WithPBE2(2))
	if err != nil {
		f.Fatal(err)
	}
	s, _ := NewSingle(WithPBE2(2))
	for _, tm := range []int64{3, 9, 9, 4, 1 << 40} {
		s.Append(tm)
	}
	for _, x := range []*Single{empty, s} {
		data := saveSingle(f, x)
		f.Add(data)
		f.Add(saveHBS2(f, x))
		f.Add(saveHBS3(f, x))
		for _, cut := range []int{1, 5, 7, len(data) / 2, len(data) - 1} {
			f.Add(data[:cut])
		}
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	pair, _ := New(2, WithPBE2(2))
	pair.Append(1, 7)
	var buf bytes.Buffer
	if err := pair.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("HBS\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// As it is, and under a recomputed checksum: the only way a mutated
		// block reaches the decoder.
		inputs := [][]byte{data}
		if len(data) > 4 {
			inputs = append(inputs, sealed(append([]byte(nil), data[:len(data)-4]...)))
		}
		for _, in := range inputs {
			s, err := LoadSingle(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if _, err := s.Burstiness(5, 2); err != nil {
				t.Fatalf("loaded summary cannot query: %v", err)
			}
			again, err := LoadSingle(bytes.NewReader(saveSingle(t, s)))
			if err != nil {
				t.Fatalf("re-saved summary does not load: %v", err)
			}
			if !reflect.DeepEqual(*again.p, *s.p) {
				t.Fatalf("save and load changed the summary:\n%+v\n%+v", again.p, s.p)
			}
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
