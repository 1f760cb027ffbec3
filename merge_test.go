package histburst

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

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

// spans builds a finished K = 64, γ = 2 detector (every level collision-free)
// from runs of one arrival a tick: {event, first tick, last tick}, in order.
func spans(t *testing.T, runs ...[3]int64) *Detector {
	t.Helper()
	d, err := New(64, WithPBE2(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		for tm := r[1]; tm <= r[2]; tm++ {
			d.Append(uint64(r[0]), tm)
		}
	}
	d.Finish()
	return d
}

// TestRefusedMergeAppendLeavesReceiver: a merge refused partway — by the
// parts' order, or by the one cell that counted the boundary timestamp on
// both sides — leaves every answer and every byte of the receiver as they
// were, F̃ ≤ F on its own stream included.
func TestRefusedMergeAppendLeavesReceiver(t *testing.T) {
	for name, c := range map[string]struct{ recv, other [][3]int64 }{
		"misordered":         {[][3]int64{{1, 100, 149}, {2, 1000, 1049}}, [][3]int64{{2, 500, 549}, {1, 2000, 2049}}},
		"boundary in a cell": {[][3]int64{{1, 100, 149}, {2, 150, 150}}, [][3]int64{{1, 150, 199}, {2, 150, 150}}},
		// Event 1's cell would have taken segment starts 2³³ ticks past its
		// first: the wide form.
		"boundary in a cell, far": {[][3]int64{{1, 100, 149}, {2, 150, 150}}, [][3]int64{{2, 150, 150}, {1, 1 << 33, 1<<33 + 49}}},
	} {
		t.Run(name, func(t *testing.T) {
			recv, other := spans(t, c.recv...), spans(t, c.other...)
			answers := func() string {
				var b strings.Builder
				fmt.Fprintf(&b, "N=%d span=[%d,%d] bytes=%d\n", recv.N(), recv.MinTime(), recv.MaxTime(), recv.Bytes())
				for e := uint64(0); e < 64; e++ {
					for _, q := range []int64{99, 149, 150, 549, 1049, 2049, 5000, 1 << 33, 1<<33 + 49} {
						bq, err := recv.Burstiness(e, q, 50)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&b, "F(%d,%d)=%v b=%v\n", e, q, recv.CumulativeFrequency(e, q), bq)
					}
				}
				top, err := recv.TopBursty(1049, 3, 50)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "top=%v\n", top)
				return b.String()
			}
			before, file := answers(), saveBytes(t, recv)
			if err := recv.MergeAppend(other); err == nil {
				t.Fatal("merge accepted")
			}
			got, was := strings.Split(answers(), "\n"), strings.Split(before, "\n")
			for i := range was {
				if got[i] != was[i] {
					t.Fatalf("the refused merge changed the receiver: %s, was %s", got[i], was[i])
				}
			}
			if !bytes.Equal(saveBytes(t, recv), file) {
				t.Fatal("the refused merge changed the receiver's file")
			}
		})
	}
}

// TestMergeRefusesMisorderedParts: a part whose first arrival precedes an
// earlier part's last is refused before any cell is read — even when no cell
// holds arrivals of both, which the cells alone cannot see — by merge and
// downsample alike. A boundary timestamp the two parts share merges: a
// checkpoint seals store segments that do.
func TestMergeRefusesMisorderedParts(t *testing.T) {
	late, early := spans(t, [3]int64{0, 1000, 1049}), spans(t, [3]int64{63, 100, 149})
	if _, err := MergeDetectors([]*Detector{late, early}); err == nil || !strings.Contains(err.Error(), "precedes") {
		t.Errorf("MergeDetectors: %v", err)
	}
	if _, err := DownsampleDetectors([]*Detector{late, early}, 4, 2, 0); err == nil || !strings.Contains(err.Error(), "precedes") {
		t.Errorf("DownsampleDetectors: %v", err)
	}
	if err := late.MergeAppend(early); err == nil || !strings.Contains(err.Error(), "precedes") {
		t.Errorf("MergeAppend: %v", err)
	}
	if late.N() != 50 || late.MinTime() != 1000 {
		t.Fatalf("refused merge changed the receiver: N=%d MinTime=%d", late.N(), late.MinTime())
	}

	touching := spans(t, [3]int64{63, 1049, 1098})
	merged, err := MergeDetectors([]*Detector{late, touching})
	if err != nil {
		t.Fatal(err)
	}
	if merged.N() != 100 || merged.MinTime() != 1000 || merged.MaxTime() != 1098 {
		t.Fatalf("merged N=%d span=[%d,%d], want 100 over [1000,1098]", merged.N(), merged.MinTime(), merged.MaxTime())
	}
	for e, want := range map[uint64]float64{0: 50, 63: 50} {
		if f := merged.CumulativeFrequency(e, 1098); f != want {
			t.Errorf("F̃(%d, 1098) = %v, want %v", e, f, want)
		}
	}
	if err := late.MergeAppend(touching); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, late), saveBytes(t, merged)) {
		t.Error("MergeAppend and MergeDetectors disagree")
	}
}
