package cmpbe

import (
	"strings"
	"testing"

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

// TestMergeSketchesMatchesMergeAppend pins the streaming sketch merge
// bit-identical to the sequential MergeAppend chain on every cell.
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
	naiveSrcs := build()
	naive := naiveSrcs[0]
	for _, p := range naiveSrcs[1:] {
		if err := naive.MergeAppend(p); err != nil {
			t.Fatal(err)
		}
	}

	if fast.N() != naive.N() || fast.MaxTime() != naive.MaxTime() {
		t.Fatalf("counters: N %d/%d maxT %d/%d", fast.N(), naive.N(), fast.MaxTime(), naive.MaxTime())
	}
	maxT := fast.MaxTime()
	for e := uint64(0); e < 40; e++ {
		for q := int64(-3); q <= maxT+3; q += 7 {
			if a, b := fast.EstimateF(e, q), naive.EstimateF(e, q); a != b {
				t.Fatalf("EstimateF(%d,%d) = %v, MergeAppend chain gives %v", e, q, a, b)
			}
			if a, b := fast.Burstiness(e, q, 50), naive.Burstiness(e, q, 50); a != b {
				t.Fatalf("Burstiness(%d,%d) = %v, MergeAppend chain gives %v", e, q, a, b)
			}
		}
	}
}

// TestMergeDirectsMatchesMergeAppend does the same for the collision-free
// summaries the dyadic tree's top levels use.
func TestMergeDirectsMatchesMergeAppend(t *testing.T) {
	mk := func() *Direct {
		d, err := NewDirect(32, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	data := mixedStream(13, 5000, 32)
	parts := partitionStream(data)
	build := func() []*Direct {
		out := make([]*Direct, len(parts))
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
	fast, err := MergeDirects(srcs)
	if err != nil {
		t.Fatal(err)
	}
	naiveSrcs := build()
	naive := naiveSrcs[0]
	for _, p := range naiveSrcs[1:] {
		if err := naive.MergeAppend(p); err != nil {
			t.Fatal(err)
		}
	}

	if fast.N() != naive.N() || fast.MaxTime() != naive.MaxTime() {
		t.Fatalf("counters: N %d/%d maxT %d/%d", fast.N(), naive.N(), fast.MaxTime(), naive.MaxTime())
	}
	for e := uint64(0); e < 32; e++ {
		for q := int64(-3); q <= fast.MaxTime()+3; q += 5 {
			if a, b := fast.EstimateF(e, q), naive.EstimateF(e, q); a != b {
				t.Fatalf("EstimateF(%d,%d) = %v, MergeAppend chain gives %v", e, q, a, b)
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

// TestLevelKindsDoNotMix: the level functions hand each kind to its own
// merge or downsample and refuse a mix, and a sketch narrows only to a width
// that divides its own.
func TestLevelKindsDoNotMix(t *testing.T) {
	s, _ := New(2, 8, 1, 2)
	d, _ := NewDirect(8, 2)
	s.Finish()
	d.Finish()
	if _, err := MergeLevels([]Level{s, d}); err == nil || !strings.Contains(err.Error(), "level kind mismatch") {
		t.Errorf("merging a sketch and a Direct: %v", err)
	}
	if _, err := DownsampleLevels([]Level{d, s}, 4, 1, 4); err == nil || !strings.Contains(err.Error(), "level kind mismatch") {
		t.Errorf("downsampling a Direct and a sketch: %v", err)
	}
	if err := MergeAppendLevel(s, d); err == nil || !strings.Contains(err.Error(), "level kind mismatch") {
		t.Errorf("appending a Direct to a sketch: %v", err)
	}
	if _, err := MergeLevels(nil); err == nil {
		t.Error("merge of zero levels accepted")
	}
	for w, want := range map[int]int{4: 4, 8: 8, 3: 8, 0: 8, 16: 8} {
		l, err := DownsampleLevels([]Level{s}, 4, 1, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, got := l.(*Sketch).Dims(); got != want {
			t.Errorf("downsampled to width %d: %d wide, want %d", w, got, want)
		}
	}
	if l, err := MergeLevels([]Level{d, d}); err != nil || l.(*Direct).IDs() != 8 {
		t.Errorf("merging two Directs: %v", err)
	}
}
