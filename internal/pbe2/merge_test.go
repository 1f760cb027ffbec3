package pbe2

import (
	"testing"

	"histburst/internal/curve"
)

// mergeTwo merges a later partition b onto a, as a merge-append would.
func mergeTwo(a, b *Builder) (*Builder, error) {
	return MergeFinished(sealed(a, b))
}

func TestMergeAppendPreservesGammaBound(t *testing.T) {
	ts := randomTimestamps(41, 3000, 3)
	cut := len(ts) / 3
	for cut < len(ts) && ts[cut] == ts[cut-1] {
		cut++
	}
	gamma := 3.0
	a, err := mergeTwo(buildPBE2(t, ts[:cut], gamma), buildPBE2(t, ts[cut:], gamma))
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != int64(len(ts)) {
		t.Fatalf("count = %d, want %d", a.Count(), len(ts))
	}
	exact, err := curve.FromTimestamps(ts)
	if err != nil {
		t.Fatal(err)
	}
	checkWithinGamma(t, a, exact, ts[len(ts)-1]+5, gamma)
}

func TestMergeAppendValidation(t *testing.T) {
	a, _ := New(2)
	b, _ := New(3)
	if _, err := mergeTwo(a, b); err == nil {
		t.Fatal("gamma mismatch accepted")
	}
	c, _ := New(2)
	d, _ := New(2)
	c.Append(100)
	d.Append(100) // same instant ⇒ overlapping partitions
	if _, err := mergeTwo(c, d); err == nil {
		t.Fatal("overlap accepted")
	}
}

func TestMergeAppendEmptySides(t *testing.T) {
	a, _ := New(2)
	b, _ := New(2)
	b.Append(10)
	a, err := mergeTwo(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != 1 || a.Estimate(10) != 1 {
		t.Fatalf("adopt failed: %d %v", a.Count(), a.Estimate(10))
	}
	empty, _ := New(2)
	if a, err = mergeTwo(a, empty); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 1 {
		t.Fatal("empty merge changed state")
	}
}
