package pbe2

import (
	"testing"
)

// threeParts builds the same three time-disjoint partitions twice so the
// streaming kernel and the MergeAppend chain each get pristine sources.
func threeParts(t testing.TB, gamma float64) []*Builder {
	t.Helper()
	ts := randomTimestamps(91, 4000, 3)
	c1, c2 := len(ts)/3, 2*len(ts)/3
	for c1 < len(ts) && ts[c1] == ts[c1-1] {
		c1++
	}
	for c2 < len(ts) && (c2 <= c1 || ts[c2] == ts[c2-1]) {
		c2++
	}
	parts := []*Builder{
		buildPBE2(t, ts[:c1], gamma),
		buildPBE2(t, ts[c1:c2], gamma),
		buildPBE2(t, ts[c2:], gamma),
	}
	for _, p := range parts {
		p.Finish()
	}
	return parts
}

// TestMergeFinishedMatchesMergeAppend pins the streaming merge kernel
// bit-identical to the sequential MergeAppend chain: same segments, same
// counters, same estimate at every instant.
func TestMergeFinishedMatchesMergeAppend(t *testing.T) {
	const gamma = 2.0
	parts := threeParts(t, gamma)
	segsBefore := parts[1].NumSegments()

	fast, err := MergeFinished(parts)
	if err != nil {
		t.Fatal(err)
	}
	if parts[1].NumSegments() != segsBefore {
		t.Fatal("MergeFinished mutated a source")
	}

	naiveParts := threeParts(t, gamma)
	naive := naiveParts[0]
	for _, p := range naiveParts[1:] {
		if err := naive.MergeAppend(p); err != nil {
			t.Fatal(err)
		}
	}

	if fast.Count() != naive.Count() || fast.OutOfOrder() != naive.OutOfOrder() ||
		fast.NumSegments() != naive.NumSegments() || fast.lastT != naive.lastT ||
		fast.headLow != naive.headLow {
		t.Fatalf("state mismatch: count %d/%d segs %d/%d lastT %d/%d headLow %d/%d",
			fast.Count(), naive.Count(), fast.NumSegments(), naive.NumSegments(),
			fast.lastT, naive.lastT, fast.headLow, naive.headLow)
	}
	ns := naive.Segments()
	for i, s := range fast.Segments() {
		if s != ns[i] {
			t.Fatalf("segment %d: %+v != %+v", i, s, ns[i])
		}
	}
	for q := int64(-5); q <= fast.lastT+5; q++ {
		if f, n := fast.Estimate(q), naive.Estimate(q); f != n {
			t.Fatalf("Estimate(%d) = %v, MergeAppend chain gives %v", q, f, n)
		}
	}
}

func TestMergeFinishedEmptyAndSingle(t *testing.T) {
	empty, _ := New(2)
	if _, err := MergeFinished(nil); err == nil {
		t.Fatal("zero-part merge accepted")
	}
	one, err := MergeFinished([]*Builder{empty})
	if err != nil {
		t.Fatal(err)
	}
	if one.Count() != 0 || one.Estimate(100) != 0 {
		t.Fatalf("empty merge: count=%d", one.Count())
	}

	b := buildPBE2(t, randomTimestamps(7, 200, 2), 2)
	b.Finish()
	merged, err := MergeFinished([]*Builder{empty, b, empty})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count() != b.Count() {
		t.Fatalf("count = %d, want %d", merged.Count(), b.Count())
	}
}

func TestMergeFinishedValidation(t *testing.T) {
	a, _ := New(2)
	b, _ := New(3)
	if _, err := MergeFinished([]*Builder{a, b}); err == nil {
		t.Fatal("gamma mismatch accepted")
	}
	c, _ := New(2)
	c.Append(10) // started but unfinished
	if _, err := MergeFinished([]*Builder{c}); err == nil {
		t.Fatal("unfinished source accepted")
	}
	d, _ := New(2)
	e, _ := New(2)
	d.Append(100)
	e.Append(100) // same instant ⇒ overlapping partitions
	d.Finish()
	e.Finish()
	if _, err := MergeFinished([]*Builder{d, e}); err == nil {
		t.Fatal("overlap accepted")
	}
}
