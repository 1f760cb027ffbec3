package pbe2

import (
	"math"
	"math/rand"
	"testing"

	"histburst/internal/stream"
)

// cellOf returns a sealed cell holding segs, as a merge or a decoder would
// write them, under gamma with count arrivals and its frontier at lastT.
func cellOf(gamma float64, segs []Segment, count, lastT int64) *Summary {
	c := &Builder{summary: Summary{gamma: gamma, headLow: math.MaxInt64}}
	for _, seg := range segs {
		c.appendSegment(seg)
	}
	c.count, c.lastT, c.prevF = count, lastT, count
	c.rest()
	c.clip()
	return &c.summary
}

// TestLineForms: a cell holds its values at Start on the 2⁻⁸ grid — past
// the int32 a 32-bit record held too — until one passes ±2⁵⁵
// counts, or more than a few values fall off the grid, then every value as
// a float64; the odd value off the grid, and a slope no float32 holds,
// escape their segment whole. Each form answers, encodes and decodes as the
// int64 reference does.
func TestLineForms(t *testing.T) {
	base := []Segment{
		{A: 0.5, Y: 1, Start: 100, End: 110},
		{A: 0.25, Y: 7, Start: 115, End: 131},
		{A: 0, Y: 12.5, Start: 140, End: 140},
		{A: 1.0 / 1024, Y: 12.75, Start: 150, End: 1174},
	}
	with := func(edit func([]Segment)) []Segment {
		segs := append([]Segment(nil), base...)
		edit(segs)
		return segs
	}
	// Thin windows every third segment of 24: the fourth, at the twelfth
	// segment, is more than a sixth of them.
	var thin []Segment
	for i := range 24 {
		seg := Segment{A: 0.5, Y: float64(6 * i), Start: int64(20 * i), End: int64(20*i + 10)}
		if i%3 == 2 {
			seg.Y += 1.0 / 3
		}
		thin = append(thin, seg)
	}
	for _, tc := range []struct {
		name            string
		segs            []Segment
		float           bool
		escaped, narrow int
	}{
		{"narrow", base, false, 0, 4},
		{"a value off the grid", with(func(s []Segment) { s[2].Y += 1.0 / 3 }), false, 1, 3},
		{"a value past int32", with(func(s []Segment) { s[3].Y += 1 << 23 }), false, 0, 3},
		{"the least value an int32 record held", with(func(s []Segment) { s[0].Y = float64(math.MinInt32+2) / yUnit }), false, 0, 4},
		{"a value an int32 record's tag took", with(func(s []Segment) { s[0].Y = float64(math.MinInt32+1) / yUnit }), false, 0, 3},
		{"a value below the base", with(func(s []Segment) { s[2].Y = -100.5 }), false, 0, 4},
		{"a value past 2⁵⁵ counts", with(func(s []Segment) { s[3].Y += 1 << 56 }), true, 0, 3},
		{"a slope no float32 holds", with(func(s []Segment) { s[1].A = 1.0 / 3 }), false, 1, 3},
		{"both", with(func(s []Segment) { s[1].A, s[1].Y = 1.0/3, 7+1.0/3 }), false, 1, 3},
		{"an escape, then a value past int32", with(func(s []Segment) { s[0].A, s[3].Y = math.Pi, s[3].Y+1<<23 }), false, 1, 2},
		{"an escape, then a value past 2⁵⁵ counts", with(func(s []Segment) { s[0].A, s[3].Y = math.Pi, s[3].Y+1<<56 }), true, 1, 2},
		{"thin windows past a sixth", thin, true, 3, 16},
	} {
		last := tc.segs[len(tc.segs)-1]
		s := cellOf(1, tc.segs, 20, last.End+5)
		if s.float != tc.float {
			t.Fatalf("%s: values held as float64: %v, want %v", tc.name, s.float, tc.float)
		}
		if got := checkStoredLines(t, tc.name, s); got != len(tc.segs)-tc.narrow {
			t.Fatalf("%s: %d lines off the narrow form, want %d", tc.name, got, len(tc.segs)-tc.narrow)
		}
		for i, seg := range s.Segments() {
			if seg != tc.segs[i] {
				t.Fatalf("%s: segment %d reads %+v, was written %+v", tc.name, i, seg, tc.segs[i])
			}
		}
		if s.escaped() != tc.escaped {
			t.Fatalf("%s: want %d escaped segments, have %d", tc.name, tc.escaped, s.escaped())
		}
		checkAgainstRef(t, tc.name, s, false)
	}
}

// TestSparseGammaOneBytes: at γ = 1 over sparse arrivals the feasible
// regions are about one gap's reciprocal wide, thinner than the 2⁻⁸ grid at
// most window starts, so a cell takes float64 values after its first few
// escapes — below the 20 bytes a segment the same cell took with 32-bit
// fields, and every arrival still within its bounds. At γ = 8 the same
// streams stay on the grid.
func TestSparseGammaOneBytes(t *testing.T) {
	for _, gap := range []float64{500, 5000} {
		rng := rand.New(rand.NewSource(1))
		ts := make(stream.TimestampSeq, 20_000)
		cur := int64(1_700_000_000)
		for i := range ts {
			cur += int64(rng.ExpFloat64() * gap)
			ts[i] = cur
		}
		for _, gamma := range []float64{1, 8} {
			b := buildPBE2(t, ts, gamma)
			s := b.Seal()
			n := s.NumSegments()
			off := checkStoredLines(t, "sparse", s)
			segs := s.Segments()
			t.Logf("γ = %v, mean gap %v: %d segments, %d off the narrow grid, %.2f B a segment, %.2f with 32-bit fields",
				gamma, gap, n, off, float64(s.Bytes())/float64(n), float64(parentBytes(segs))/float64(n))
			if limit := map[float64]int{1: 19, 8: 14}[gamma]; s.Bytes() > limit*n+3*16 {
				t.Errorf("γ = %v, mean gap %v: %d bytes for %d segments, want at most %d a segment and three escapes", gamma, gap, s.Bytes(), n, limit)
			}
			if s.Bytes() != refBytes(segs) || s.Bytes() > parentBytes(segs) {
				t.Errorf("γ = %v, mean gap %v: Bytes = %d, want %d and at most the %d of 32-bit fields", gamma, gap, s.Bytes(), refBytes(segs), parentBytes(segs))
			}
			checkAtArrivals(t, "sparse", s.Estimate, ts, gamma)
		}
	}
}

// TestHeavyCellBytes: a cell whose count passes 2²³, the reach of the
// block's int32 record, keeps its values on the grid, built past it or
// lifted past it by a merge: a value field a few bits wider, where 32-bit
// fields took float64 values at 20 bytes a segment.
func TestHeavyCellBytes(t *testing.T) {
	const heavy = 1<<23 + 1000
	rng := rand.New(rand.NewSource(2))
	ts := make(stream.TimestampSeq, 0, heavy+5000)
	for range heavy {
		ts = append(ts, 1_700_000_000)
	}
	cur := int64(1_700_000_000)
	for range 5000 {
		cur += 1 + int64(rng.ExpFloat64()*40)
		ts = append(ts, cur)
	}
	light := buildPBE2(t, ts[heavy:], 8).Seal()
	built := buildPBE2(t, ts, 8).Seal()
	merged, err := MergeFinished([]*Summary{heavyPart(t, ts[0], heavy, 8), light})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		s    *Summary
	}{{"built", built}, {"merged", &merged.summary}} {
		n := c.s.NumSegments()
		if c.s.float || c.s.escaped() != 0 {
			t.Fatalf("%s: want grid values and no escaped segment, have float64 values %v and %d escaped", c.what, c.s.float, c.s.escaped())
		}
		segs := c.s.Segments()
		t.Logf("%s: %d segments, %.2f B a segment, %.2f with 32-bit fields", c.what, n, float64(c.s.Bytes())/float64(n), float64(parentBytes(segs))/float64(n))
		if got := c.s.Bytes(); got != refBytes(segs) || got > 13*n {
			t.Errorf("%s: %d bytes for %d segments, want %d, at most 13 a segment", c.what, got, n, refBytes(segs))
		}
		checkStoredLines(t, c.what, c.s)
		for _, v := range ts[heavy-1:] {
			for _, q := range [...]int64{v - 1, v, v + 1} {
				checkInstant(t, c.what, c.s.Estimate(q), float64(ts.CountAtOrBefore(q)), 8, q)
			}
		}
	}
}
