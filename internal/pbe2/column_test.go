package pbe2

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"histburst/internal/binenc"
)

// packedBoundaries are the values a packed field is appended at: zero, and
// either side of every power of two, the byte widths' edges among them, up
// to the ends of uint64.
var packedBoundaries = func() []uint64 {
	out := []uint64{0}
	for k := 0; k < 64; k++ {
		out = append(out, 1<<k-1, 1<<k, 1<<k+1)
	}
	return append(out, math.MaxUint64-1, math.MaxUint64)
}()

// packedCase builds, from a fuzzer's bytes, a cell whose segments' fields
// cross every width boundary, appending them one by one, and after each
// append reads back the segment just written, the first and one the bytes
// pick, against the reference. Each segment takes three bytes: its start's
// offset from the first (a boundary, or the least that follows the
// previous segment when that is past it, or the most a record's gap
// reaches when the boundary is beyond that), its length (a boundary, cut to
// what int64 time and the block's records hold), and its line (a value at Start on the 2⁻⁸ grid,
// a boundary count of it above or below zero — below the base once the
// cell has one — or a value off the grid, or a slope no float32 holds).
// The start's byte picks the slope as well, by its top two bits: one whose
// float32 takes 2 bytes, none, 3 or 4 (packedSlopes).
func packedCase(t *testing.T, data []byte) (*Summary, []Segment) {
	t.Helper()
	c := &Builder{summary: Summary{gamma: 1, headLow: math.MaxInt64}}
	var ref []Segment
	pick := func(b byte) uint64 { return packedBoundaries[int(b)%len(packedBoundaries)] }
	var end uint64 // the previous segment's end, as an offset
	for i := 0; i+2 < len(data) && len(ref) < 256; i += 3 {
		off := max(pick(data[i]), end)
		switch {
		case len(ref) == 0:
			off = 0
		case off-end > math.MaxInt64:
			off = end + math.MaxInt64 // the most a record's gap holds
		}
		length := min(pick(data[i+1]), math.MaxUint64-off, math.MaxInt64)
		seg := Segment{A: packedSlopes[data[i]>>6], Start: math.MinInt64 + int64(off), End: math.MinInt64 + int64(off+length)}
		// A count of 2⁻⁸ either side of 2ʲ, j the line byte's high six bits:
		// past 2⁶³, no int64 holds it and the cell takes float64 values.
		k := float64(packedBoundaries[3*int(data[i+2]>>2)+int(data[i])%3])
		switch data[i+2] & 3 {
		case 0:
			seg.Y = k / yUnit
		case 1:
			seg.Y = -k / yUnit
		case 2:
			seg.Y = k/yUnit + 1.0/3 // off the grid, or rounded onto it
		case 3:
			seg.Y, seg.A = k/yUnit, 1.0/3
		}
		if seg.Y == 0 {
			seg.Y = 0 // −0 reads back as 0, the value's one form
		}
		c.appendSegment(seg)
		ref = append(ref, seg)
		end = off + length
		for _, j := range [...]int{len(ref) - 1, 0, int(data[i]) % len(ref)} {
			if got := c.seg(j); !sameSegment(got, ref[j]) {
				t.Fatalf("after %d appends, segment %d reads %+v, was written %+v", len(ref), j, got, ref[j])
			}
		}
	}
	if len(ref) == 0 {
		return nil, nil
	}
	last := ref[len(ref)-1]
	c.count, c.lastT, c.prevF = int64(len(ref)), last.End, int64(len(ref))
	c.rest()
	c.clip()
	return &c.summary, ref
}

// packedSlopes are slopes whose float32 bits need 2, 0, 3 and 4 bytes: 0.5,
// zero, and 0.5 plus the float32's 2⁻¹⁶ and 2⁻²⁴ relative steps.
var packedSlopes = [4]float64{0.5, 0, 0.5 + 1.0/(1<<16), 0.5 + 1.0/(1<<24)}

// packedSeeds are FuzzPackedColumn's seeds.
var packedSeeds = [][]byte{
	{0, 1, 0, 17, 33, 64, 25, 66, 129, 49, 130, 4, 73, 194, 197, 97, 7, 130, 193, 193, 255},
	{0, 0, 4, 1, 1, 8, 2, 2, 12, 3, 3, 16, 4, 4, 20, 5, 5, 128, 191, 192, 253},
	{0, 190, 3, 190, 191, 2, 191, 192, 1, 192, 193, 0, 193, 194, 250, 193, 194, 252},
	{64, 1, 0, 65, 2, 4, 66, 3, 8},    // slopes of no bytes
	{0, 1, 0, 1, 1, 3, 2, 2, 4},       // an escaped segment among 2-byte slopes
	{128, 1, 0, 129, 2, 4, 130, 3, 8}, // 3-byte slopes
	{192, 1, 0, 193, 2, 4},            // 4-byte slopes
}

// sameSegment compares segments bit for bit.
func sameSegment(a, b Segment) bool {
	return a.Start == b.Start && a.End == b.End && sameFloat(a.A, b.A) && sameFloat(a.Y, b.Y)
}

// FuzzPackedColumn appends segments whose start offsets, lengths and values
// at Start cross every width boundary a packed field has — and values below
// the base — reading back as it goes (packedCase). Sealed, the cell reads
// every segment as written, Bytes() is what its columns hold and what the
// layout says (refBytes), and the cell round-trips through the cell block to the same cell and the same bytes.
func FuzzPackedColumn(f *testing.F) {
	for _, seed := range packedSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ref := packedCase(t, data)
		if s == nil {
			return
		}
		for j, want := range ref {
			if got := s.seg(j); !sameSegment(got, want) {
				t.Fatalf("sealed, segment %d reads %+v, was written %+v", j, got, want)
			}
		}
		if got, want := s.Bytes(), refBytes(ref); got != want || heldBytes(s) != got {
			t.Fatalf("Bytes = %d, want %d, the columns hold %d", got, want, heldBytes(s))
		}
		blob := encodeBlock(t, []Builder{{summary: *s}}, s.lastT)
		back := make([]Builder, 1)
		if _, err := DecodeBlock(binenc.NewReader(blob), back, s.lastT); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(back[0].summary, *s) {
			t.Fatalf("decoded as\n%+v, built as\n%+v", back[0].summary, *s)
		}
		if again := encodeBlock(t, back, s.lastT); !bytes.Equal(again, blob) {
			t.Fatal("the decoded cell encodes to other bytes")
		}
	})
}

// TestPackedBoundaries: FuzzPackedColumn's seeds take every field across
// byte widths up to 8, below the base, and to float64 values and escapes,
// and hold slopes at every width, an escaped segment among 2-byte slopes
// included.
func TestPackedBoundaries(t *testing.T) {
	var sw, lw, yw uint8
	var float, escaped, rebased, escapedIn2 bool
	slopeWidths := map[uint8]bool{}
	for _, data := range packedSeeds {
		s, ref := packedCase(t, data)
		sw, lw, yw = max(sw, s.sw), max(lw, s.lw), max(yw, s.yw)
		float, escaped = float || s.float, escaped || s.escaped() > 0
		rebased = rebased || !s.float && s.yBase < int64(ref[0].Y*yUnit)
		slopeWidths[s.aw()] = true
		escapedIn2 = escapedIn2 || s.aw() == 2 && s.escaped() > 0
	}
	if sw != 8 || lw != 8 || yw != 8 || !float || !escaped || !rebased {
		t.Fatalf("seeds reach widths %d/%d/%d bytes, float64 values %v, escapes %v, a base below the first value %v; want 8/8/8 and all three",
			sw, lw, yw, float, escaped, rebased)
	}
	if !reflect.DeepEqual(slopeWidths, map[uint8]bool{0: true, 2: true, 3: true, 4: true}) || !escapedIn2 {
		t.Fatalf("seeds hold slopes at widths %v, an escaped segment among 2-byte slopes %v; want 0, 2, 3 and 4, and one", slopeWidths, escapedIn2)
	}
}

// TestBytesNoWorseThanParent: no cell of the block fixtures, at the leaf's γ
// or the steering levels', counts more than its segments took in 32-bit
// fields — 16 bytes a segment, and the wide extras of starts spread past
// 2³² ticks, float64 values and escaped segments (parentBytes).
func TestBytesNoWorseThanParent(t *testing.T) {
	for _, gamma := range []float64{8, 32} {
		cells, _ := blockCells(t, gamma)
		for i := range cells {
			s := cells[i].Seal()
			segs := s.Segments()
			if got, parent := s.Bytes(), parentBytes(segs); got > parent {
				t.Errorf("γ = %v, cell %d: %d bytes for %d segments, more than the %d of 32-bit fields", gamma, i, got, len(segs), parent)
			}
		}
	}
}
