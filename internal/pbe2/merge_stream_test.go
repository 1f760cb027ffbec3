package pbe2

import (
	"fmt"
	"testing"
)

// sealed seals bs and returns their summaries.
func sealed(bs ...*Builder) []*Summary {
	out := make([]*Summary, len(bs))
	for i, b := range bs {
		out[i] = b.Seal()
	}
	return out
}

// mergeAppend is the cell-level reference MergeFinished is checked against:
// the in-place merge that absorbed one later partition into the receiver,
// segment by segment — and that left the receiver half-merged when it
// refused one partway through a sketch.
func mergeAppend(b, o *Builder) error {
	if o.gamma != b.gamma {
		return fmt.Errorf("pbe2: gamma mismatch (%v vs %v)", b.gamma, o.gamma)
	}
	b.Finish()
	o.Finish()
	if o.count == 0 {
		return nil
	}
	if b.count > 0 && o.n > 0 && o.firstStart < b.lastT {
		return fmt.Errorf("pbe2: time ranges overlap (receiver ends at %d, other starts at %d)",
			b.lastT, o.firstStart)
	}
	offset := float64(b.count)
	for i := range o.n {
		s := o.seg(i)
		s.Y += offset
		b.appendSegment(s)
	}
	b.count += o.count
	b.lastT = o.lastT
	b.prevF = b.count
	b.outOfOrder += o.outOfOrder
	b.rest()
	return nil
}

// threeParts builds the same three time-disjoint partitions twice so the
// streaming kernel and the mergeAppend chain each get pristine sources.
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

	fast, err := MergeFinished(sealed(parts...))
	if err != nil {
		t.Fatal(err)
	}
	if parts[1].NumSegments() != segsBefore {
		t.Fatal("MergeFinished mutated a source")
	}

	naiveParts := threeParts(t, gamma)
	naive := naiveParts[0]
	for _, p := range naiveParts[1:] {
		if err := mergeAppend(naive, p); err != nil {
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
	one, err := MergeFinished(sealed(empty))
	if err != nil {
		t.Fatal(err)
	}
	if one.Count() != 0 || one.Estimate(100) != 0 {
		t.Fatalf("empty merge: count=%d", one.Count())
	}

	b := buildPBE2(t, randomTimestamps(7, 200, 2), 2)
	b.Finish()
	merged, err := MergeFinished(sealed(empty, b, empty))
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
	if _, err := MergeFinished(sealed(a, b)); err == nil {
		t.Fatal("gamma mismatch accepted")
	}
	d, _ := New(2)
	e, _ := New(2)
	d.Append(100)
	e.Append(100) // same instant ⇒ overlapping partitions
	if _, err := MergeFinished(sealed(d, e)); err == nil {
		t.Fatal("overlap accepted")
	}
}
