package pbe2

import (
	"math"
	"strings"
	"testing"

	"histburst/internal/binenc"
)

func TestMarshalRoundTrip(t *testing.T) {
	ts := randomTimestamps(11, 2000, 3)
	b := buildPBE2(t, ts, 3)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Builder
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got.Count() != b.Count() || got.NumSegments() != b.NumSegments() || got.Gamma() != b.Gamma() {
		t.Fatalf("metadata mismatch")
	}
	for q := int64(0); q <= ts[len(ts)-1]+5; q += 3 {
		if got.Estimate(q) != b.Estimate(q) {
			t.Fatalf("estimate differs at t=%d: %v vs %v", q, got.Estimate(q), b.Estimate(q))
		}
	}
}

func TestMarshalFinishesOpenWindow(t *testing.T) {
	b, _ := New(2)
	for _, v := range []int64{1, 5, 9, 14} {
		b.Append(v)
	}
	// No Finish: MarshalBinary must seal the window itself.
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Builder
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if est := got.Estimate(14); est != 4 {
		t.Fatalf("Estimate(14) = %v, want 4", est)
	}
	// Appending continues.
	got.Append(30)
	got.Finish()
	if got.Count() != 5 || got.Estimate(30) != 5 {
		t.Fatalf("append after unmarshal broken: %d %v", got.Count(), got.Estimate(30))
	}
}

func TestMarshalEmpty(t *testing.T) {
	b, _ := New(4)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Builder
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 || got.Estimate(10) != 0 || got.Gamma() != 4 {
		t.Fatal("empty round trip broken")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var b Builder
	for i, c := range [][]byte{nil, []byte("nope"), []byte("PB2\x01xx")} {
		if err := b.UnmarshalBinary(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	src := buildPBE2(t, randomTimestamps(3, 300, 3), 2)
	blob, _ := src.MarshalBinary()
	for cut := 0; cut < len(blob); cut += 5 {
		if err := b.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("cut=%d accepted", cut)
		}
	}
}

// rawSummary writes the wire format around segs as they are, sorted or not:
// what a file with a valid checksum can carry.
func rawSummary(count, lastT int64, segs []Segment) []byte {
	var w binenc.Writer
	w.BytesBlob(pbe2Magic)
	w.Float64(2)
	w.Varint(count)
	w.Varint(lastT)
	w.Varint(count)
	w.Bool(true)
	w.Bool(true)
	w.Varint(0)
	w.Uvarint(uint64(len(segs)))
	var prev int64
	for _, s := range segs {
		w.Float64(s.A)
		w.Float64(s.B)
		w.Varint(s.Start - prev)
		w.Varint(s.End - s.Start)
		prev = s.Start
	}
	return w.Bytes()
}

// TestUnmarshalRejectsUnsearchable: the decoder holds a summary to the
// builder's own invariants, because the search kernels assume them. At the
// parent every case decoded, and the first answered F̃(40) = 0 under F̃(55) = 7
// from a binary search over unsorted starts.
func TestUnmarshalRejectsUnsearchable(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		segs       []Segment
	}{
		{"descending starts, End < Start", "negative length",
			[]Segment{{1, 0, 50, 45}, {0, 43, 30, 28}, {0, 7, 40, 39}}},
		{"descending starts", "starts before its predecessor",
			[]Segment{{0, 1, 10, 12}, {0, 2, 5, 20}}},
		{"negative length", "negative length",
			[]Segment{{0, 1, 10, 9}}},
		{"length wraps int64", "negative length",
			[]Segment{{0, 1, 10, 12}, {0, 2, math.MaxInt64 - 3, math.MinInt64 + 5}}},
		{"End past the next Start", "before its predecessor ends",
			[]Segment{{0, 1, 10, 30}, {0, 2, 20, 40}}},
		{"NaN slope", "non-finite",
			[]Segment{{math.NaN(), 1, 10, 12}}},
		{"infinite intercept", "non-finite",
			[]Segment{{0, 1, 10, 12}, {0, math.Inf(-1), 20, 22}}},
	} {
		var b Builder
		err := b.UnmarshalBinary(rawSummary(50, 60, tc.segs))
		if err == nil {
			t.Errorf("%s: accepted; F̃(40) = %v, F̃(55) = %v", tc.name, b.Estimate(40), b.Estimate(55))
			continue
		}
		if !strings.HasPrefix(err.Error(), "pbe2: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want a pbe2: error naming %q", tc.name, err, tc.want)
		}
	}
	// What the builder can legitimately emit still decodes: a successor may
	// start on its predecessor's End, two segments may share a Start when the
	// first is a single instant, and starts may be negative.
	ok := []Segment{{0, 1, -20, -20}, {0.5, 3, -20, 4}, {0, 7, 4, 9}, {0, 8, 30, 30}}
	var b Builder
	if err := b.UnmarshalBinary(rawSummary(50, 60, ok)); err != nil {
		t.Fatalf("builder-shaped summary refused: %v", err)
	}
	for i, s := range b.Segments() {
		if s != ok[i] {
			t.Fatalf("segment %d decoded as %+v, want %+v", i, s, ok[i])
		}
	}
}
