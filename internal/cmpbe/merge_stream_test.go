package cmpbe

import (
	"bytes"
	"testing"

	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// partitionStream cuts a time-sorted stream into three partitions that never
// split a timestamp.
func partitionStream(data stream.Stream) []stream.Stream {
	c1, c2 := len(data)/3, 2*len(data)/3
	for c1 < len(data) && data[c1].Time == data[c1-1].Time {
		c1++
	}
	for c2 < len(data) && (c2 <= c1 || data[c2].Time == data[c2-1].Time) {
		c2++
	}
	return []stream.Stream{data[:c1], data[c1:c2], data[c2:]}
}

// mergeChain merges parts one at a time onto the first, each step a
// two-part merge-append.
func mergeChain(t *testing.T, parts []*Sketch) *Sketch {
	t.Helper()
	out := parts[0]
	for _, p := range parts[1:] {
		var err error
		if out, err = mergeTwo(out, p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestMergeSketchesMatchesMergeAppend pins the n-way sketch merge
// bit-identical to merging its parts one at a time on every cell.
func TestMergeSketchesMatchesMergeAppend(t *testing.T) {
	mk := func() *Sketch {
		s, err := New(3, 16, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	data := mixedStream(11, 6000, 40)
	parts := partitionStream(data)
	build := func() []*Sketch {
		out := make([]*Sketch, len(parts))
		for i, p := range parts {
			out[i] = mk()
			for _, el := range p {
				out[i].Append(el.Event, el.Time)
			}
			out[i].Finish()
		}
		return out
	}

	srcs := build()
	fast, err := MergeSketches(srcs)
	if err != nil {
		t.Fatal(err)
	}
	naive := mergeChain(t, build())

	if fast.N() != naive.N() || fast.MaxTime() != naive.MaxTime() {
		t.Fatalf("counters: N %d/%d maxT %d/%d", fast.N(), naive.N(), fast.MaxTime(), naive.MaxTime())
	}
	maxT := fast.MaxTime()
	for e := uint64(0); e < 40; e++ {
		for q := int64(-3); q <= maxT+3; q += 7 {
			if a, b := fast.EstimateF(e, q), naive.EstimateF(e, q); a != b {
				t.Fatalf("EstimateF(%d,%d) = %v, merging one part at a time gives %v", e, q, a, b)
			}
			if a, b := fast.Burstiness(e, q, pbe.MustSpan(50)), naive.Burstiness(e, q, pbe.MustSpan(50)); a != b {
				t.Fatalf("Burstiness(%d,%d) = %v, merging one part at a time gives %v", e, q, a, b)
			}
		}
	}
}

// TestMergeDirectsMatchesMergeAppend does the same for the collision-free
// summaries the dyadic tree's top levels use.
func TestMergeDirectsMatchesMergeAppend(t *testing.T) {
	mk := func() *Sketch {
		d, err := NewDirect(32, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	data := mixedStream(13, 5000, 32)
	parts := partitionStream(data)
	build := func() []*Sketch {
		out := make([]*Sketch, len(parts))
		for i, p := range parts {
			out[i] = mk()
			for _, el := range p {
				out[i].Append(el.Event, el.Time)
			}
			out[i].Finish()
		}
		return out
	}

	srcs := build()
	fast, err := MergeSketches(srcs)
	if err != nil {
		t.Fatal(err)
	}
	naive := mergeChain(t, build())

	if fast.N() != naive.N() || fast.MaxTime() != naive.MaxTime() || !fast.CollisionFree() {
		t.Fatalf("counters: N %d/%d maxT %d/%d, collision-free %t", fast.N(), naive.N(), fast.MaxTime(), naive.MaxTime(), fast.CollisionFree())
	}
	if !bytes.Equal(encoded(t, fast), encoded(t, naive)) {
		t.Fatal("merged level encodes to other bytes than merging one part at a time")
	}
	for e := uint64(0); e < 32; e++ {
		for q := int64(-3); q <= fast.MaxTime()+3; q += 5 {
			if a, b := fast.EstimateF(e, q), naive.EstimateF(e, q); a != b {
				t.Fatalf("EstimateF(%d,%d) = %v, merging one part at a time gives %v", e, q, a, b)
			}
		}
	}
}

func TestMergeSketchesValidation(t *testing.T) {
	a, _ := New(3, 16, 5, 2)
	b, _ := New(3, 16, 6, 2) // seed mismatch
	if _, err := MergeSketches([]*Sketch{a, b}); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	c, _ := New(2, 16, 5, 2) // dimension mismatch
	if _, err := MergeSketches([]*Sketch{a, c}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := MergeSketches(nil); err == nil {
		t.Fatal("zero-part merge accepted")
	}
}
