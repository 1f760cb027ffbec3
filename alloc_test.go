package histburst

import "testing"

// TestSingleBurstinessZeroAllocs pins the zero-allocation point query on the
// single-event summary; the Detector equivalent lives in internal/cmpbe.
func TestSingleBurstinessZeroAllocs(t *testing.T) {
	s, err := NewSingle(WithPBE2(4))
	if err != nil {
		t.Fatal(err)
	}
	for tm := int64(0); tm < 5000; tm++ {
		reps := 1
		if tm/100%2 == 0 {
			reps = 6
		}
		for j := 0; j < reps; j++ {
			s.Append(tm)
		}
	}
	s.Finish()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Burstiness(3_000, 250); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Single.Burstiness allocates %.1f times per op, want 0", allocs)
	}
}
