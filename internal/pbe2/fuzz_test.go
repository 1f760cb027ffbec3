package pbe2

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/stream"
)

// fuzzOrigins are the time origins the one-sided contract is pinned at:
// small ticks, Unix seconds, Unix milliseconds.
var fuzzOrigins = [...]int64{0, 1.7e9, 1.7e12}

// FuzzPBE2OneSided builds a summary from fuzzer-chosen gaps at a
// fuzzer-chosen time origin and checks F − γ ≤ F̃ ≤ F — the upper side
// strictly — around every corner, on the open tail and after Finish.
func FuzzPBE2OneSided(f *testing.F) {
	for sel := range fuzzOrigins {
		f.Add(byte(sel), byte(7), []byte{1, 1, 0, 0, 3, 0x85, 2, 0, 0, 0, 9, 0xff, 1, 1, 1, 2, 0x90, 4})
		f.Add(byte(sel), byte(0), []byte{0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 1})
	}
	f.Fuzz(func(t *testing.T, sel, gsel byte, gaps []byte) {
		if len(gaps) == 0 || len(gaps) > 4096 {
			return
		}
		// The selector's low bits pick the origin, the rest nudge it.
		origin := fuzzOrigins[int(sel)%len(fuzzOrigins)] + int64(sel/3)*86_400
		gamma := float64(1 + gsel%16)
		ts := make(stream.TimestampSeq, len(gaps))
		cur := origin + 1
		for i, g := range gaps {
			gap := int64(g & 0x1f) // 0 … 31: same-instant runs and neighbours
			if g&0x80 != 0 {
				gap <<= 6 // up to 1984: long flat stretches
			}
			cur += gap
			ts[i] = cur
		}
		check := func(what string, b *Builder) {
			for i, v := range ts {
				next := v + 2
				if i+1 < len(ts) {
					next = ts[i+1]
				}
				// Pre-rise, corner, just after, mid-gap, pre-rise of the next.
				for _, q := range [...]int64{v - 1, v, v + 1, v + (next-v)/2, next - 1} {
					checkInstant(t, what, b.Estimate(q), float64(ts.CountAtOrBefore(q)), gamma, q)
				}
			}
		}
		b, err := New(gamma)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ts {
			b.Append(v)
		}
		check("open", b)
		b.Finish()
		check("finished", b)
	})
}

// FuzzSummarySearch builds a summary whose arrival gaps straddle 2³² ticks —
// just short of it, just past it, or a sizeable fraction of it — at a
// fuzzer-chosen origin, so that its segment starts fall on either side of
// 32 bits and of the packed key's other byte widths. Open and after
// Finish, Estimate, Estimate3 and the downsampling cursor must answer as a
// linear scan over Segments() does at every breakpoint, and a finished
// summary's Bytes() must be what its columns hold.
func FuzzSummarySearch(f *testing.F) {
	f.Add(byte(0), byte(7), []byte{1, 0xc3, 2, 2, 0x85, 0, 0x40, 0x7f, 3, 0xbf, 1})
	f.Add(byte(3), byte(0), []byte{0, 0x7f, 0x7f, 0x7f, 0x7f, 0x41, 1, 1, 0xc0, 0x80})
	f.Add(byte(4), byte(15), []byte{0xff, 0xff, 5, 0x81, 0x81, 9})
	// Segment starts that cross each packed width in turn — a burst of nine
	// arrivals, more than γ, closes a segment at every step: past 2⁸ in
	// steps of 63 ticks, past 2¹⁶ and 2²⁴ in steps of 2²⁶, past 2³² and on
	// to 2³⁷ in steps of 63·2²⁶.
	var widths []byte
	for k := range 48 {
		step := byte(0x3f)
		switch {
		case k >= 8:
			step = 0x7f
		case k >= 5:
			step = 0x41
		}
		widths = append(append(widths, step), make([]byte, 9)...)
	}
	for sel := range 6 {
		f.Add(byte(sel), byte(7), widths)
	}
	f.Fuzz(func(t *testing.T, sel, gsel byte, gaps []byte) {
		if len(gaps) == 0 || len(gaps) > 512 {
			return
		}
		origins := [...]int64{0, 1.7e9, 1.7e12, 1.7e18, math.MinInt64 + 2, math.MaxInt64 - 1<<45}
		gamma := float64(1 + gsel%16)
		ts := make(stream.TimestampSeq, 0, len(gaps))
		cur := origins[int(sel)%len(origins)]
		for _, g := range gaps {
			step := int64(g & 0x3f)
			switch g >> 6 {
			case 1: // a fraction of 2³²: offsets creep up on the boundary
				step <<= 26
			case 2: // just past 2³²
				step = 1<<32 + step
			case 3: // just short of it
				step = 1<<32 - step
			}
			next, ok := addTick(cur, step)
			if !ok {
				break
			}
			cur = next
			ts = append(ts, cur)
		}
		b, err := New(gamma)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, s *Summary, est func(int64) float64, est3 func(t0, t1, t2 int64) (float64, float64, float64)) {
			ref := refOf(s)
			lin := func(q int64) float64 {
				if q >= s.headLow {
					return est(q) // the open window or the exact count: not the columns' to answer
				}
				for i := len(ref.segs) - 1; i >= 0; i-- {
					if seg := ref.segs[i]; seg.Start <= q {
						v := seg.Y + seg.A*float64(uint64(min(q, seg.End)-seg.Start))
						if v < 0 {
							v = 0
						}
						return v
					}
				}
				return 0
			}
			probes := refProbes(ref)
			for _, v := range ts {
				for _, d := range [...]int64{-1, 0, 1} {
					if q, ok := addTick(v, d); ok {
						probes = append(probes, q)
					}
				}
			}
			slices.Sort(probes)
			probes = slices.Compact(probes)
			cur := srcCursor{s: s, i: -1}
			for k, q := range probes {
				want := lin(q)
				if got := est(q); !sameFloat(got, want) {
					t.Fatalf("%s: Estimate(%d) = %v, the scan says %v", what, q, got, want)
				}
				if q < s.headLow {
					if got := cur.est(q); !sameFloat(got, want) {
						t.Fatalf("%s: cursor at %d = %v, the scan says %v", what, q, got, want)
					}
				}
				// The instant itself and two earlier probes, near and far.
				p1, p0 := probes[k/2+k/4], probes[k/2]
				f0, f1, f2 := est3(p0, p1, q)
				if !sameFloat(f0, lin(p0)) || !sameFloat(f1, lin(p1)) || !sameFloat(f2, want) {
					t.Fatalf("%s: Estimate3(%d, %d, %d) = %v %v %v, the scan says %v %v %v",
						what, p0, p1, q, f0, f1, f2, lin(p0), lin(p1), want)
				}
			}
		}
		for _, v := range ts {
			b.Append(v)
		}
		check("open", &b.summary, b.Estimate, b.Estimate3)
		s := b.Seal()
		check("finished", s, s.Estimate, s.Estimate3)
		if held := heldBytes(s); held != s.Bytes() {
			t.Fatalf("columns hold %d bytes, Bytes = %d", held, s.Bytes())
		}
	})
}

// FuzzMergeOneSided cuts a fuzzer-chosen stream at an epoch-scale origin
// into two to four parts at fuzzer-chosen points, builds each, and merges
// them: parts that share a timestamp across a cut must be refused, and
// otherwise the merge must hold F − γ ≤ F̃ ≤ F — the upper side strictly —
// at every integer instant of the merged span, and equal, column for
// column, merging the first two parts and then the rest. The detector's
// merge and the store's compaction are this merge, cell by cell.
func FuzzMergeOneSided(f *testing.F) {
	f.Add(byte(1), uint16(3), uint16(9), uint16(0), []byte{1, 1, 0, 0, 3, 0x85, 2, 0, 0, 0, 9, 0xff, 1, 1, 1, 2, 0x90, 4})
	f.Add(byte(7), uint16(1), uint16(2), uint16(3), []byte{0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, gsel byte, c1, c2, c3 uint16, gaps []byte) {
		if len(gaps) < 2 || len(gaps) > 1024 {
			return
		}
		gamma := float64(1 + gsel%16)
		ts := make(stream.TimestampSeq, len(gaps))
		cur := int64(1.7e9)
		for i, g := range gaps {
			gap := int64(g & 0x1f) // 0 … 31: same-instant runs and neighbours
			if g&0x80 != 0 {
				gap <<= 4 // up to 496: flat stretches
			}
			cur += gap
			ts[i] = cur
		}
		cuts := []int{0, len(ts)}
		for _, c := range [...]uint16{c1, c2, c3} {
			if at := int(c) % len(ts); at > 0 && !slices.Contains(cuts, at) {
				cuts = append(cuts, at)
			}
		}
		if len(cuts) < 3 {
			return
		}
		slices.Sort(cuts)
		parts := make([]*Summary, len(cuts)-1)
		touching := false
		for k := range parts {
			b, err := New(gamma)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ts[cuts[k]:cuts[k+1]] {
				b.Append(v)
			}
			parts[k] = b.Seal()
			touching = touching || k > 0 && ts[cuts[k]] == ts[cuts[k]-1]
		}
		merged, err := MergeFinished(parts)
		if touching {
			if err == nil {
				t.Fatal("parts sharing a timestamp across a cut merged")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		checkOneSided(t, "merged", merged.Estimate, ts, gamma, ts[0]-2, ts[len(ts)-1]+2)
		pair, err := MergeFinished(parts[:2])
		if err != nil {
			t.Fatal(err)
		}
		chain, err := MergeFinished(append([]*Summary{pair.Seal()}, parts[2:]...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(chain.summary, merged.summary) {
			t.Fatalf("%d-way merge\n%+v\nmerging two, then the rest\n%+v", len(parts), merged.summary, chain.summary)
		}
	})
}

// FuzzPBE2CellBlock throws bytes at the cell block decoder under a
// fuzzer-chosen cell count and level frontier. It must never panic; it must
// not allocate beyond a small multiple of the input (the cells themselves are
// the caller's, one per presence bit); and the format is canonical — whatever
// it accepts re-encodes to exactly the bytes it consumed.
func FuzzPBE2CellBlock(f *testing.F) {
	cells, maxT := blockCells(f, 8)
	whole := encodeBlock(f, cells, maxT)
	f.Add(uint16(len(cells)), maxT, whole)
	f.Add(uint16(len(cells)), maxT, whole[:len(whole)/2])
	f.Add(uint16(len(cells)+3), maxT-1, whole)
	// The same cells as an index holds them above height 4: under 4γ.
	steer, steerT := blockCells(f, 32)
	f.Add(uint16(len(steer)), steerT, encodeBlock(f, steer, steerT))
	good := rawCell{count: 7, open: 2, first: -60, segs: []rawSegment{{0, 10, 0.5, 1}, {3, 5, 0, 6}}}
	f.Add(uint16(2), int64(100), rawBlock(0, []byte{1}, []rawCell{good}))
	f.Add(uint16(9), int64(58), rawBlock(4, []byte{0x81, 1}, []rawCell{good, good, good}))
	f.Add(uint16(64), int64(0), rawBlock(0, make([]byte, 8), nil))
	for _, tc := range recordForms() {
		f.Add(uint16(2), int64(100), tc.data)
	}
	f.Add(uint16(1), int64(0), []byte{})

	f.Fuzz(func(t *testing.T, n uint16, maxT int64, data []byte) {
		if n == 0 {
			return
		}
		arena := make([]Builder, n)
		r := binenc.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := DecodeBlock(r, arena, maxT)
		runtime.ReadMemStats(&after)
		// A segment of at least 7 stored takes 32 bytes in the list the
		// decoder reads the records into (×4.6) and at most 28 of columns —
		// three 8-byte fields and a slope, though a field wider than its
		// varint needs more stored bytes than that; a grid record of one-
		// byte varints takes some 9, so a block of nothing but such
		// records allocates ×5.9, which the constant covers up to some
		// 75 KB; an escaped segment 16 more for its 16 stored, and a
		// 24-byte wide struct for a cell with one; the constant covers the
		// error and whatever the fuzzing worker's own goroutines allocate
		// meanwhile — the counter is the process's.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(5*len(data)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes into %d cells allocated %d, want at most %d", len(data), n, got, limit)
		}
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Remaining()]
		if again := encodeBlock(t, arena, maxT); !bytes.Equal(again, consumed) {
			t.Fatalf("accepted %x, which re-encodes to %x", consumed, again)
		}
		for i := range arena {
			b := &arena[i]
			b.Estimate3(maxT-20, maxT-10, maxT)
			if b.count < 0 || b.count > 0 && (b.n == 0 || b.lastT > maxT) {
				t.Fatalf("cell %d accepted in a state no builder reaches: %+v", i, b)
			}
		}
	})
}

// sliverGaps is a γ = 1 stream of long flat runs at FuzzPBE2OneSided's gap
// encoding: many of its windows close on regions thinner than 2⁻⁸ count,
// where no line of the narrow grid lies strictly inside and the cell takes
// float64 values.
var sliverGaps = []byte{0x12, 0xf9, 0x2a, 0xfb, 0xe0, 0xf, 0x85, 0x8, 0xd0, 0xe8, 0x3b, 0xab, 0x9c, 0xf8, 0xce, 0xbf, 0x42, 0xe2, 0x5e, 0x8b}

// FuzzNarrowLine holds every stored line, narrow, float64 or escaped, to
// the contract: F − γ ≤ F̃ ≤ F — the upper side strictly — at every integer
// instant of the history. It builds a summary from fuzzer-chosen gaps at a
// small, Unix-second or Unix-millisecond origin; when heavy is odd it also
// merges that summary after a part of 2²³ arrivals or more at the origin,
// whose lift carries every y ≥ 0 of the later part past int32. A cell holds
// its lines narrow exactly when the narrow grid holds every value at Start.
func FuzzNarrowLine(f *testing.F) {
	for sel := range fuzzOrigins {
		f.Add(byte(sel), byte(0), byte(1), sliverGaps)
		f.Add(byte(sel), byte(7), byte(3), []byte{1, 1, 0, 0, 3, 0x85, 2, 0, 0, 0, 9, 0xff, 1, 1, 1, 2, 0x90, 4})
		f.Add(byte(sel), byte(3), byte(0), []byte{0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 1})
	}
	f.Fuzz(func(t *testing.T, sel, gsel, heavy byte, gaps []byte) {
		if len(gaps) == 0 || len(gaps) > 256 {
			return
		}
		narrowLineCase(t, sel, gsel, heavy, gaps)
	})
}

// TestNarrowLineEscapes: FuzzNarrowLine's seeds reach both ways off the
// narrow grid — a window too thin for it, and a lift past int32 — at every
// origin.
func TestNarrowLineEscapes(t *testing.T) {
	for sel := range fuzzOrigins {
		built, merged := narrowLineCase(t, byte(sel), 0, 1, sliverGaps)
		if built == 0 || merged <= built {
			t.Errorf("origin %d: %d lines off the narrow grid as built, %d after the lift; want some, then more", fuzzOrigins[sel], built, merged)
		}
	}
}

// narrowLineCase is FuzzNarrowLine's body. It returns how many lines of the
// summary and of the merge no narrow line holds.
func narrowLineCase(t *testing.T, sel, gsel, heavy byte, gaps []byte) (built, merged int) {
	t.Helper()
	origin := fuzzOrigins[int(sel)%len(fuzzOrigins)]
	gamma := float64(1 + gsel%16)
	ts := make(stream.TimestampSeq, len(gaps))
	cur := origin + 1
	for i, g := range gaps {
		gap := int64(g & 0x1f)
		if g&0x80 != 0 {
			gap <<= 6
		}
		cur += gap
		ts[i] = cur
	}
	b, err := New(gamma)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ts {
		b.Append(v)
	}
	s := b.Seal()
	built = checkStoredLines(t, "built", s)
	checkOneSided(t, "built", s.Estimate, ts, gamma, ts[0]-2, ts[len(ts)-1]+2)
	if heavy&1 == 0 {
		return built, 0
	}
	n := int64(1<<23 + int(heavy>>1))
	m, err := MergeFinished([]*Summary{heavyPart(t, origin, n, gamma), s})
	if err != nil {
		t.Fatal(err)
	}
	merged = checkStoredLines(t, "merged", &m.summary)
	i := 0
	for q := origin - 2; q <= ts[len(ts)-1]+2; q++ {
		for i < len(ts) && ts[i] <= q {
			i++
		}
		f := float64(i)
		if q >= origin {
			f += float64(n)
		}
		checkInstant(t, "merged", m.Estimate(q), f, gamma, q)
	}
	return built, merged
}

// heavyParts caches heavyPart's summaries, each built from millions of
// arrivals.
var heavyParts sync.Map

// heavyPart returns the summary of n arrivals at one instant.
func heavyPart(t *testing.T, at, n int64, gamma float64) *Summary {
	type key struct {
		at, n int64
		gamma float64
	}
	k := key{at, n, gamma}
	if s, ok := heavyParts.Load(k); ok {
		return s.(*Summary)
	}
	b, err := New(gamma)
	if err != nil {
		t.Fatal(err)
	}
	for range n {
		b.Append(at)
	}
	s := b.Seal()
	heavyParts.Store(k, s)
	return s
}

// checkStoredLines holds each stored segment to the form refForms
// replays for it — escaped whole to the wide form, or a line whose value is
// on the grid in a grid cell and float64 in a cell of float64 values — and
// returns how many segments a 32-bit record could not hold: lines escaped
// or off the int32 grid.
func checkStoredLines(t *testing.T, what string, s *Summary) int {
	t.Helper()
	segs := s.Segments()
	forms, float := refForms(segs)
	if s.float != float {
		t.Fatalf("%s: values at Start held as float64: %v, want %v", what, s.float, float)
	}
	off, escaped := 0, 0
	for i, seg := range segs {
		a := math.Float32frombits(s.slopeBits(i))
		switch {
		case forms[i] == escapedValue:
			escaped++
			if s.slopeBits(i) != escSlope || s.yField(i) != uint64(escaped-1) {
				t.Fatalf("%s: segment %d %+v is a line; want it escaped", what, i, seg)
			}
		case float64(a) != seg.A || s.segLen(i) != seg.End-seg.Start || s.value(s.yField(i)) != seg.Y:
			t.Fatalf("%s: segment %d %+v is not its fields: slope %v, y field %#x", what, i, seg, a, s.yField(i))
		}
		if forms[i] == escapedValue || !narrowRef(seg.Y) {
			off++
		}
	}
	if held := s.escaped(); held != escaped {
		t.Fatalf("%s: %d segments escaped, the wide form holds %d", what, escaped, held)
	}
	return off
}
