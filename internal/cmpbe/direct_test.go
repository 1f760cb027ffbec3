package cmpbe

import (
	"math"
	"testing"

	"histburst/internal/exact"
	"histburst/internal/pbe"
)

func TestDirectValidation(t *testing.T) {
	if _, err := NewDirect(0, 2); err == nil {
		t.Error("ids=0 accepted")
	}
	if _, err := NewDirect(4, 0); err == nil {
		t.Error("gamma 0 accepted")
	}
}

func TestDirectNoCollisions(t *testing.T) {
	d, err := NewDirect(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.New()
	for tm := int64(0); tm < 1000; tm++ {
		e := uint64(tm % 4)
		d.Append(e, tm)
		oracle.Append(e, tm)
	}
	d.Finish()
	if d.N() != 1000 || d.MaxTime() != 999 {
		t.Fatalf("N=%d MaxTime=%d", d.N(), d.MaxTime())
	}
	for e := uint64(0); e < 4; e++ {
		for q := int64(0); q < 1000; q += 37 {
			got := d.EstimateF(e, q)
			want := float64(oracle.CumFreq(e, q))
			if math.Abs(got-want) > 1 { // γ=1: per-stream PBE error only
				t.Fatalf("e=%d t=%d: %v vs %v", e, q, got, want)
			}
		}
	}
	// Burstiness error bounded by 4γ.
	for e := uint64(0); e < 4; e++ {
		for q := int64(50); q < 1000; q += 53 {
			got := d.Burstiness(e, q, pbe.MustSpan(25))
			want := float64(oracle.Burstiness(e, q, 25))
			if math.Abs(got-want) > 4 {
				t.Fatalf("burstiness e=%d t=%d: %v vs %v", e, q, got, want)
			}
		}
	}
	if d.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
}

func TestDirectFoldsIDs(t *testing.T) {
	d, _ := NewDirect(4, 1)
	d.Append(7, 10) // folds to 3
	d.Finish()
	if got := d.EstimateF(3, 10); got != 1 {
		t.Fatalf("EstimateF(3,10) = %v, want 1", got)
	}
}

func TestDirectBurstyTimes(t *testing.T) {
	d, _ := NewDirect(2, 1)
	// Event 0: quiet then a sharp burst at t in [100, 120).
	for tm := int64(0); tm < 200; tm++ {
		d.Append(1, tm) // steady noise on the other id
		if tm >= 100 && tm < 120 {
			for j := 0; j < 10; j++ {
				d.Append(0, tm)
			}
		}
	}
	d.Finish()
	ranges := d.BurstyTimes(0, 50, pbe.MustSpan(20))
	if len(ranges) == 0 {
		t.Fatal("burst not detected")
	}
	for _, r := range ranges {
		if r.End <= 100 || r.Start >= 160 {
			t.Fatalf("spurious range %+v", r)
		}
	}
}
