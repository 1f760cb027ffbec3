package histburst

import "testing"

func TestMergeAppendConfigMismatch(t *testing.T) {
	a, _ := New(16, WithPBE2(2))
	b, _ := New(16, WithPBE2(3))
	if err := a.MergeAppend(b); err == nil {
		t.Error("gamma mismatch accepted")
	}
	c, _ := New(16, WithPBE2(2), WithSeed(1))
	d, _ := New(16, WithPBE2(2), WithSeed(2))
	if err := c.MergeAppend(d); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := a.MergeAppend(nil); err == nil {
		t.Error("nil accepted")
	}
}

// TestMergeAppendEqualBoundaryRejected pins the boundary contract the
// segment store's compactor depends on: partitions whose ranges merely
// touch (other starts AT the receiver's frontier timestamp) are NOT
// mergeable — PBE pins other's curve one tick before its first arrival,
// which would overlap the receiver — while a strictly later start is.
func TestMergeAppendEqualBoundaryRejected(t *testing.T) {
	opts := []Option{WithPBE2(2), WithSketchDims(3, 32), WithSeed(3)}
	build := func(times ...int64) *Detector {
		d, err := New(4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range times {
			d.Append(1, tm)
		}
		return d
	}
	a := build(1, 2, 10)
	if err := a.MergeAppend(build(10, 11)); err == nil {
		t.Fatal("equal-boundary merge accepted")
	}
	if a.N() != 3 {
		t.Fatalf("failed merge changed the receiver: N=%d", a.N())
	}
	// A strictly later partition merges, and the frontier count is exact.
	if err := a.MergeAppend(build(11, 12)); err != nil {
		t.Fatal(err)
	}
	if a.N() != 5 {
		t.Fatalf("merged N = %d, want 5", a.N())
	}
	if f := a.CumulativeFrequency(1, 12); f != 5 {
		t.Fatalf("frontier frequency = %v, want exact 5", f)
	}
}

// TestMergeAppendEmptyPartitions covers the degenerate shards a splitter
// can produce: merging an empty detector is a no-op, and merging into an
// empty detector adopts the other side wholesale.
func TestMergeAppendEmptyPartitions(t *testing.T) {
	opts := []Option{WithPBE2(2), WithSketchDims(3, 32), WithSeed(3)}
	newDet := func() *Detector {
		d, err := New(4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	full := newDet()
	for tm := int64(1); tm <= 8; tm++ {
		full.Append(2, tm)
	}
	if err := full.MergeAppend(newDet()); err != nil {
		t.Fatal(err)
	}
	if full.N() != 8 || full.MaxTime() != 8 {
		t.Fatalf("no-op merge changed state: N=%d maxT=%d", full.N(), full.MaxTime())
	}
	if f := full.CumulativeFrequency(2, 8); f != 8 {
		t.Fatalf("frontier frequency = %v, want exact 8", f)
	}

	adopted := newDet()
	donor := newDet()
	for tm := int64(5); tm <= 9; tm++ {
		donor.Append(3, tm)
	}
	if err := adopted.MergeAppend(donor); err != nil {
		t.Fatal(err)
	}
	if adopted.N() != 5 || adopted.MinTime() != 5 || adopted.MaxTime() != 9 {
		t.Fatalf("adopting merge: N=%d span=[%d,%d]", adopted.N(), adopted.MinTime(), adopted.MaxTime())
	}
	if f := adopted.CumulativeFrequency(3, 9); f != 5 {
		t.Fatalf("adopted frontier frequency = %v, want exact 5", f)
	}

	// Empty into empty stays empty and usable.
	e1, e2 := newDet(), newDet()
	if err := e1.MergeAppend(e2); err != nil {
		t.Fatal(err)
	}
	if e1.N() != 0 {
		t.Fatalf("empty merge N = %d", e1.N())
	}
	e1.Append(1, 3)
	if e1.N() != 1 {
		t.Fatalf("post-merge append lost: N=%d", e1.N())
	}
}
