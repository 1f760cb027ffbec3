package stream

import (
	"cmp"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	ok := Stream{{1, 1}, {2, 1}, {3, 2}, {1, 5}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate(sorted) = %v, want nil", err)
	}
	bad := Stream{{1, 2}, {2, 1}}
	if err := bad.Validate(); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("Validate(unsorted) = %v, want ErrOutOfOrder", err)
	}
	if err := (Stream{}).Validate(); err != nil {
		t.Fatalf("Validate(empty) = %v, want nil", err)
	}
}

func TestSortIsStable(t *testing.T) {
	s := Stream{{Event: 3, Time: 5}, {Event: 1, Time: 2}, {Event: 2, Time: 5}, {Event: 9, Time: 2}}
	s.Sort()
	want := Stream{{Event: 1, Time: 2}, {Event: 9, Time: 2}, {Event: 3, Time: 5}, {Event: 2, Time: 5}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("Sort = %v, want %v", s, want)
	}
}

// TestSortMatchesStableSort: the natural merge gives, element for element,
// the order of the general stable sort — on concatenated sorted runs (its
// case), on input with no order at all, and on the edges between.
func TestSortMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(400)
		runs := 1 + r.Intn(12)
		if trial%3 == 0 {
			runs = n // no run structure at all
		}
		s := make(Stream, 0, n)
		for len(s) < n {
			// Event carries the original position, so a lost tie shows.
			cur := int64(r.Intn(20))
			for k := 1 + (n-len(s))/runs; k > 0 && len(s) < n; k-- {
				cur += int64(r.Intn(3))
				if runs == n {
					cur = int64(r.Intn(50))
				}
				s = append(s, Element{Event: uint64(len(s)), Time: cur})
			}
		}
		want := append(Stream(nil), s...)
		slices.SortStableFunc(want, func(a, b Element) int { return cmp.Compare(a.Time, b.Time) })
		s.Sort()
		if !slices.Equal(s, want) {
			t.Fatalf("trial %d (n=%d, runs=%d): Sort = %v, want %v", trial, n, runs, s, want)
		}
	}
}

func TestSpan(t *testing.T) {
	if _, _, ok := (Stream{}).Span(); ok {
		t.Fatal("Span(empty) reported ok")
	}
	lo, hi, ok := Stream{{1, 3}, {1, 7}, {1, 9}}.Span()
	if !ok || lo != 3 || hi != 9 {
		t.Fatalf("Span = %d,%d,%v; want 3,9,true", lo, hi, ok)
	}
}

func TestSub(t *testing.T) {
	s := Stream{{1, 1}, {2, 3}, {3, 3}, {4, 5}, {5, 9}}
	cases := []struct {
		t1, t2 int64
		want   int
	}{
		{0, 10, 5},
		{3, 3, 2},
		{2, 4, 2},
		{6, 8, 0},
		{9, 9, 1},
		{5, 1, 0}, // inverted range
		{-5, 0, 0},
	}
	for _, c := range cases {
		if got := len(s.Sub(c.t1, c.t2)); got != c.want {
			t.Errorf("Sub(%d,%d) has %d elements, want %d", c.t1, c.t2, got, c.want)
		}
	}
}

func TestFilterAndEvents(t *testing.T) {
	s := Stream{{7, 1}, {2, 2}, {7, 2}, {7, 5}, {2, 6}}
	if got := s.Filter(7); !reflect.DeepEqual(got, TimestampSeq{1, 2, 5}) {
		t.Fatalf("Filter(7) = %v", got)
	}
	if got := s.Filter(99); got != nil {
		t.Fatalf("Filter(absent) = %v, want nil", got)
	}
	if got := s.Events(); !reflect.DeepEqual(got, []uint64{2, 7}) {
		t.Fatalf("Events = %v, want [2 7]", got)
	}
	counts := s.Counts()
	if counts[7] != 3 || counts[2] != 2 {
		t.Fatalf("Counts = %v", counts)
	}
}

func TestMerge(t *testing.T) {
	a := Stream{{1, 1}, {1, 4}, {1, 9}}
	b := Stream{{2, 2}, {2, 4}}
	c := Stream{}
	m := Merge(a, b, c)
	if err := m.Validate(); err != nil {
		t.Fatalf("merged stream invalid: %v", err)
	}
	if len(m) != 5 {
		t.Fatalf("merged length = %d, want 5", len(m))
	}
	if m[0].Time != 1 || m[4].Time != 9 {
		t.Fatalf("merge order wrong: %v", m)
	}
}

func TestMergeProperty(t *testing.T) {
	// Merging random sorted shards preserves multiset and order.
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var shards []Stream
		total := 0
		for i := 0; i < 1+r.Intn(4); i++ {
			n := r.Intn(20)
			sh := make(Stream, n)
			t0 := int64(0)
			for j := range sh {
				t0 += int64(r.Intn(5))
				sh[j] = Element{Event: uint64(r.Intn(5)), Time: t0}
			}
			shards = append(shards, sh)
			total += n
		}
		m := Merge(shards...)
		return len(m) == total && m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampSeqCounts(t *testing.T) {
	ts := TimestampSeq{1, 2, 2, 5, 9}
	if got := ts.CountAtOrBefore(0); got != 0 {
		t.Errorf("CountAtOrBefore(0) = %d", got)
	}
	if got := ts.CountAtOrBefore(2); got != 3 {
		t.Errorf("CountAtOrBefore(2) = %d, want 3", got)
	}
	if got := ts.CountAtOrBefore(100); got != 5 {
		t.Errorf("CountAtOrBefore(100) = %d, want 5", got)
	}
	if got := ts.CountIn(2, 5); got != 3 {
		t.Errorf("CountIn(2,5) = %d, want 3", got)
	}
	if got := ts.CountIn(3, 4); got != 0 {
		t.Errorf("CountIn(3,4) = %d, want 0", got)
	}
	if got := ts.CountIn(9, 1); got != 0 {
		t.Errorf("CountIn(inverted) = %d, want 0", got)
	}
}

func TestCountInMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := make(TimestampSeq, 200)
	cur := int64(0)
	for i := range ts {
		cur += int64(rng.Intn(4))
		ts[i] = cur
	}
	for trial := 0; trial < 200; trial++ {
		t1 := int64(rng.Intn(int(cur) + 2))
		t2 := int64(rng.Intn(int(cur) + 2))
		var want int64
		for _, v := range ts {
			if v >= t1 && v <= t2 {
				want++
			}
		}
		if got := ts.CountIn(t1, t2); got != want {
			t.Fatalf("CountIn(%d,%d) = %d, want %d", t1, t2, got, want)
		}
	}
}

func TestToStream(t *testing.T) {
	ts := TimestampSeq{3, 4, 4}
	s := ts.ToStream(11)
	want := Stream{{11, 3}, {11, 4}, {11, 4}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("ToStream = %v, want %v", s, want)
	}
}

func TestMergeDuplicateTimestampsAcrossShards(t *testing.T) {
	// A seal point may split a run of equal timestamps across shards (the
	// segment store's head split keeps the frontier run together, but
	// external shard producers need not). Merge must keep ties in shard
	// order — earlier shard first — so the result is deterministic and a
	// re-merge of re-split shards is the identity.
	a := Stream{{1, 1}, {2, 5}, {3, 5}}
	b := Stream{{4, 5}, {5, 5}, {6, 7}}
	m := Merge(a, b)
	if err := m.Validate(); err != nil {
		t.Fatalf("merged stream invalid: %v", err)
	}
	wantEvents := []uint64{1, 2, 3, 4, 5, 6}
	if len(m) != len(wantEvents) {
		t.Fatalf("merged length = %d, want %d", len(m), len(wantEvents))
	}
	for i, e := range wantEvents {
		if m[i].Event != e {
			t.Fatalf("tie order broken at %d: got %v", i, m)
		}
	}
	// Swapping the shards swaps the tie order — shard order, not id order.
	m2 := Merge(b, a)
	if m2[1].Event != 4 {
		t.Fatalf("swapped shards kept old tie order: %v", m2)
	}
	// Degenerate inputs: no shards, and all-empty shards.
	if m := Merge(); len(m) != 0 {
		t.Fatalf("Merge() = %v", m)
	}
	if m := Merge(Stream{}, nil, Stream{}); len(m) != 0 {
		t.Fatalf("Merge of empties = %v", m)
	}
}
