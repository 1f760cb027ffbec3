package pbe2

import (
	"testing"
	"unsafe"

	"histburst/internal/stream"
)

// TestBuilderSize pins the per-cell struct: a K-cell sketch pays it K times
// per level per resident segment, and Bytes() does not count it. A cell is a
// sealed Summary and one pointer: the open window's region lives behind it,
// so that a resting summary does not carry the region.
func TestBuilderSize(t *testing.T) {
	if got := unsafe.Sizeof(Summary{}); got > 144 {
		t.Fatalf("Sizeof(Summary{}) = %d, want at most 144", got)
	}
	if got, want := unsafe.Sizeof(Builder{}), unsafe.Sizeof(Summary{})+unsafe.Sizeof((*region)(nil)); got != want {
		t.Fatalf("Sizeof(Builder{}) = %d, want a Summary and a pointer: %d", got, want)
	}
}

// longRunStream is a nanosecond-clock stream whose bursts sit more than 2³²
// ticks apart: every burst rises by more than γ in one instant, so the window
// that follows it opens on the burst's own corner and spans the whole flat
// run up to the next one, the handful of arrivals before it included: they
// rise by less than γ. (It does so for γ of a few dozen: the region of a
// 2³²-tick window is γ/2³² wide in slope, and under the region's eps the builder
// falls back to a point segment and a held gap.)
func longRunStream(origin int64, bursts int) (ts stream.TimestampSeq, runs [][2]int64) {
	cur := origin
	for k := 0; k < bursts; k++ {
		// A few ordinary arrivals microseconds apart, the burst, then the
		// long silence.
		for j := 0; j < 3; j++ {
			ts = append(ts, cur)
			cur += 1500
		}
		for j := 0; j < 200; j++ {
			ts = append(ts, cur)
		}
		if k > 0 {
			runs[k-1][1] = cur - 1
		}
		if k+1 < bursts {
			runs = append(runs, [2]int64{cur, 0})
		}
		cur += 1<<32 + int64(k+1)*1_000_003
	}
	return ts, runs
}

// longLen is the least length 32-bit fields escaped a segment for.
const longLen = 1<<32 - 1

// countLong counts the segments of longLen ticks or more and checks that
// the length column holds each whole: a line like any other, at the width
// its length needs.
func countLong(b *Builder) int {
	n := 0
	for i := range b.n {
		if b.segLen(i) >= longLen {
			if b.slopeBits(i) == escSlope || b.lw <= 4 {
				return -1
			}
			n++
		}
	}
	return n
}

// probeSegments checks that the segments too long for a 32-bit slot are exactly
// the stream's flat runs, and F − γ ≤ F̃ ≤ F across each: both ends, their
// neighbours, the middle, and either side of the instants where a length
// truncated to 31 or 32 bits would end it.
func probeSegments(t *testing.T, what string, b *Builder, ts stream.TimestampSeq, runs [][2]int64, gamma float64) {
	t.Helper()
	long := 0
	for _, s := range b.Segments() {
		if s.End-s.Start < longLen {
			continue
		}
		if long == len(runs) || s.Start != runs[long][0] || s.End != runs[long][1] {
			t.Fatalf("%s: long segment %d spans [%d, %d], want the flat runs %v", what, long, s.Start, s.End, runs)
		}
		long++
		wrap32 := s.Start + int64(uint32(s.End-s.Start))
		wrap31 := s.Start + (s.End-s.Start)&(1<<31-1)
		for _, q := range [...]int64{
			s.Start, s.Start + 1, s.Start + (s.End-s.Start)/2,
			wrap31 - 1, wrap31, wrap31 + 1, wrap32 - 1, wrap32, wrap32 + 1,
			s.Start + longLen - 1, s.Start + longLen, s.End - 1, s.End, s.End + 1,
		} {
			checkInstant(t, what, b.Estimate(q), float64(ts.CountAtOrBefore(q)), gamma, q)
		}
	}
	if long != len(runs) || long != countLong(b) {
		t.Fatalf("%s: %d segments too long for 32 bits, the length column holds %d, the stream has %d flat runs",
			what, long, countLong(b), len(runs))
	}
}

// TestLongSegmentLengths: a segment whose length does not fit 32 bits
// widens the length column, and nothing downstream can tell.
func TestLongSegmentLengths(t *testing.T) {
	const origin, gamma = int64(1.7e18), 64.0
	ts, runs := longRunStream(origin, 6)
	b := buildPBE2(t, ts, gamma)
	probeSegments(t, "built", b, ts, runs, gamma)
	// Bursts 2³² ticks apart: the starts take more than 32 bits.
	if !wideForm(&b.summary) {
		t.Fatal("starts 2³² ticks apart kept 32-bit offsets")
	}
	if got, want := b.Bytes(), refBytes(b.Segments()); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	segs := b.Segments()
	t.Logf("%d segments, %d bytes: %.2f B a segment, %.2f with 32-bit fields",
		len(segs), b.Bytes(), float64(b.Bytes())/float64(len(segs)), float64(parentBytes(segs))/float64(len(segs)))
	if b.Bytes() > parentBytes(segs) {
		t.Fatalf("Bytes = %d, more than the %d of 32-bit fields", b.Bytes(), parentBytes(segs))
	}

	decoded, blob := oneCell(t, []Builder{*b})
	back := *decoded
	want := b.Segments()
	got := back.Segments()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d segments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round trip: segment %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	probeSegments(t, "decoded", &back, ts, runs, gamma)
	if again := encodeBlock(t, []Builder{back}, back.Frontier()); string(again) != string(blob) {
		t.Fatal("re-encoded bytes differ")
	}

	// Append after Finish: the stream goes on, past another long silence.
	last := ts[len(ts)-1]
	more, moreRuns := longRunStream(last+1<<33, 3)
	all := append(append(stream.TimestampSeq(nil), ts...), more...)
	allRuns := append(append([][2]int64(nil), runs...), moreRuns...)
	for _, v := range more {
		back.Append(v)
	}
	// The last flat run is still the open window.
	probeSegments(t, "resumed, open", &back, all, allRuns[:len(allRuns)-1], gamma)
	back.Finish()
	probeSegments(t, "resumed", &back, all, allRuns, gamma)

	// Merge a later partition onto it: the other partition's long segments
	// land at shifted indices.
	tail, tailRuns := longRunStream(all[len(all)-1]+1<<34, 4)
	other := buildPBE2(t, tail, gamma)
	before := back.Segments()
	lift := float64(back.Count())
	m, err := mergeTwo(&back, other)
	if err != nil {
		t.Fatal(err)
	}
	back = *m
	all = append(all, tail...)
	probeSegments(t, "merged", &back, all, append(allRuns, tailRuns...), gamma)
	merged := back.Segments()
	for i, s := range other.Segments() {
		s.Y += lift
		if merged[len(before)+i] != s {
			t.Fatalf("merged segment %d is %+v, want %+v", len(before)+i, merged[len(before)+i], s)
		}
	}
	fin, err := mergeTwo(b, other)
	if err != nil {
		t.Fatal(err)
	}
	probeSegments(t, "MergeFinished", fin, append(append(stream.TimestampSeq(nil), ts...), tail...),
		append(append([][2]int64(nil), runs...), tailRuns...), gamma)
}
