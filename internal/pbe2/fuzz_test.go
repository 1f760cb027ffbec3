package pbe2

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
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
		// 28 bytes a segment of at least 18 stored, 8 more (in an array grown
		// by doubling) when its length takes the long table; the constant
		// covers the error and whatever the fuzzing worker's own goroutines
		// allocate meanwhile — the counter is the process's.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+1<<16); got > limit {
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
			if b.count < 0 || b.count > 0 && (len(b.starts) == 0 || b.lastT > maxT) {
				t.Fatalf("cell %d accepted in a state no builder reaches: %+v", i, b)
			}
		}
	})
}
