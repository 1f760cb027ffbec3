package cmpbe

import (
	"math"
	"testing"

	"histburst/internal/exact"
)

// mergeTwo merges a later sketch b onto a, as a merge-append would.
func mergeTwo(a, b *Sketch) (*Sketch, error) {
	return MergeSketches([]*Sketch{a, b})
}

func TestSketchMergeAppend(t *testing.T) {
	mk := func() *Sketch {
		s, err := New(3, 32, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	data := mixedStream(3, 10000, 30)
	cut := len(data) / 2
	for cut < len(data) && data[cut].Time == data[cut-1].Time {
		cut++
	}
	a, b := mk(), mk()
	oracle := exact.New()
	for _, el := range data[:cut] {
		a.Append(el.Event, el.Time)
		oracle.Append(el.Event, el.Time)
	}
	for _, el := range data[cut:] {
		b.Append(el.Event, el.Time)
		oracle.Append(el.Event, el.Time)
	}
	a, err := mergeTwo(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != int64(len(data)) || a.MaxTime() != oracle.MaxTime() {
		t.Fatalf("counters: N=%d maxT=%d", a.N(), a.MaxTime())
	}
	var sumErr float64
	n := 0
	for _, e := range oracle.Events() {
		for q := int64(0); q <= oracle.MaxTime(); q += 997 {
			sumErr += math.Abs(a.EstimateF(e, q) - float64(oracle.CumFreq(e, q)))
			n++
		}
	}
	if mean := sumErr / float64(n); mean > 60 {
		t.Fatalf("merged sketch mean error %.2f too large", mean)
	}
}

func TestSketchMergeValidation(t *testing.T) {
	a, _ := New(3, 32, 5, 2)
	b, _ := New(3, 16, 5, 2)
	if _, err := mergeTwo(a, b); err == nil {
		t.Error("dimension mismatch accepted")
	}
	c, _ := New(3, 32, 6, 2)
	if _, err := mergeTwo(a, c); err == nil {
		t.Error("seed mismatch accepted")
	}
	if _, err := mergeTwo(a, nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestDirectMergeAppend(t *testing.T) {
	a, _ := NewDirect(4, 1)
	b, _ := NewDirect(4, 1)
	for tm := int64(0); tm < 500; tm++ {
		a.Append(uint64(tm%4), tm)
	}
	for tm := int64(500); tm < 1000; tm++ {
		b.Append(uint64(tm%4), tm)
	}
	a, err := mergeTwo(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 1000 {
		t.Fatalf("N = %d", a.N())
	}
	if got := a.EstimateF(1, 999); math.Abs(got-250) > 2 {
		t.Fatalf("EstimateF = %v, want ≈250", got)
	}
	c, _ := NewDirect(8, 1)
	if _, err := mergeTwo(a, c); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := mergeTwo(a, nil); err == nil {
		t.Error("nil accepted")
	}
}
