package histburst

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// atEachProcs runs fn as one sub-test per GOMAXPROCS of 1, 2 and 4: the
// chunked construction fans out over GOMAXPROCS, and its byte identity and
// its readers' settle must hold at every fan-out, under the race detector
// too.
func atEachProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

func toElements(data []struct {
	Event uint64
	Time  int64
}) []Element {
	out := make([]Element, len(data))
	for i, d := range data {
		out[i] = Element{Event: d.Event, Time: d.Time}
	}
	return out
}

func streamToElements(t *testing.T, seed int64, k int, horizon int64) []Element {
	t.Helper()
	s := testStream(seed, k, horizon)
	out := make([]Element, len(s))
	for i, el := range s {
		out[i] = Element{Event: el.Event, Time: el.Time}
	}
	return out
}

// TestBuildParallelMatchesSequentialExactly holds BuildParallel to its doc
// comment: whatever the fan-out cap, the detector it returns saves to the
// same bytes as one fed element by element.
func TestBuildParallelMatchesSequentialExactly(t *testing.T) {
	atEachProcs(t, func(t *testing.T) {
		elems := streamToElements(t, 51, 64, 4000)
		for _, opts := range [][]Option{
			{WithPBE2(2), WithSketchDims(4, 64), WithSeed(9)},
			{WithPBE2(2), WithSketchDims(2, 4), WithSeed(9)}, // Count-Min levels under collision-free ones
		} {
			seq, err := New(64, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, el := range elems {
				appendPerElement(seq, el.Event, el.Time)
			}
			want := saveBytes(t, seq)
			for _, workers := range []int{1, 2, 4, 64} {
				par, err := BuildParallel(64, elems, workers, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saveBytes(t, par), want) {
					t.Fatalf("workers=%d: parallel build differs from sequential ingestion", workers)
				}
			}
		}
	})
}

func TestBuildParallelValidation(t *testing.T) {
	if _, err := BuildParallel(8, nil, 0); err == nil {
		t.Error("workers=0 accepted")
	}
	out, err := BuildParallel(8, nil, 3)
	if err != nil || out == nil || out.N() != 0 {
		t.Errorf("empty input: %v %v", out, err)
	}
	bad := []Element{{1, 10}, {1, 5}}
	if _, err := BuildParallel(8, bad, 2); err == nil {
		t.Error("unsorted input accepted")
	}
}

func TestBuildParallelSingleWorker(t *testing.T) {
	atEachProcs(t, func(t *testing.T) {
		elems := streamToElements(t, 53, 16, 500)
		a, err := BuildParallel(16, elems, 1, WithPBE2(2), WithSketchDims(3, 16))
		if err != nil {
			t.Fatal(err)
		}
		if a.N() != int64(len(elems)) {
			t.Fatalf("N = %d, want %d", a.N(), len(elems))
		}
	})
}

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

// TestBurstyEventsSequentialOnSingleProc pins the facade's routing fix: with
// GOMAXPROCS=1 the fan-out across goroutines only adds scheduling overhead
// (a measured ~4% regression on the parallel-search benchmark), so even an
// id space at or above parallelSearchMinK must take the sequential search —
// and return the same answer the parallel search gives.
func TestBurstyEventsSequentialOnSingleProc(t *testing.T) {
	k := parallelSearchMinK // large enough that only the GOMAXPROCS guard routes sequential
	elems := streamToElements(t, 77, 256, 3000)
	d, err := New(uint64(k), WithPBE2(2), WithSketchDims(3, 64), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range elems {
		d.Append(el.Event, el.Time)
	}
	d.Finish()

	prev := runtime.GOMAXPROCS(1)
	got, err := d.BurstyEvents(1560, 6, 8)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.tree.BurstyEvents(1560, 6, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := d.tree.BurstyEventsParallel(1560, 6, 8, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("single-proc facade returned %d events, sequential search %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: facade %d != sequential %d", i, got[i], want[i])
		}
	}
	if len(par) != len(want) {
		t.Fatalf("parallel search returned %d events, sequential %d", len(par), len(want))
	}
	for i := range want {
		if par[i] != want[i] {
			t.Fatalf("event %d: parallel %d != sequential %d", i, par[i], want[i])
		}
	}
}
