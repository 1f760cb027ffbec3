package cmpbe

import (
	"math"
	"math/rand"
	"testing"

	"histburst/internal/exact"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// mixedStream generates a sorted stream over k events with Zipf popularity.
func mixedStream(seed int64, n, k int) stream.Stream {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.2, 1, uint64(k-1))
	s := make(stream.Stream, n)
	cur := int64(0)
	for i := range s {
		cur += int64(r.Intn(3))
		s[i] = stream.Element{Event: zipf.Uint64(), Time: cur}
	}
	return s
}

func pbe2Sketch(t *testing.T, d, w int, gamma float64) *Sketch {
	t.Helper()
	s, err := New(d, w, 42, gamma)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func loadSketch(t *testing.T, s *Sketch, data stream.Stream) *exact.Store {
	t.Helper()
	oracle := exact.New()
	for _, el := range data {
		s.Append(el.Event, el.Time)
		oracle.Append(el.Event, el.Time)
	}
	s.Finish()
	return oracle
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5, 1, 2); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := New(3, 0, 1, 2); err == nil {
		t.Error("w=0 accepted")
	}
	if _, _, err := ErrorDims(0, 0.1); err == nil {
		t.Error("epsilon=0 accepted")
	}
	if _, _, err := ErrorDims(0.1, 2); err == nil {
		t.Error("delta=2 accepted")
	}
	d, w, err := ErrorDims(0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if d < 2 || w < 54 {
		t.Errorf("dims d=%d w=%d for eps=.05 delta=.2", d, w)
	}
}

// TestFactoryValidation: both level kinds refuse a cell error cap no PBE-2
// summary accepts, as the cell factory they replace did.
func TestFactoryValidation(t *testing.T) {
	for _, gamma := range []float64{0.2, math.NaN(), math.Inf(1)} {
		if _, err := New(3, 5, 1, gamma); err == nil {
			t.Errorf("sketch under gamma %v accepted", gamma)
		}
		if _, err := NewDirect(4, gamma); err == nil {
			t.Errorf("direct summary under gamma %v accepted", gamma)
		}
	}
}

func TestEstimateFCloseToExact(t *testing.T) {
	const n = 30000
	const k = 100
	data := mixedStream(1, n, k)
	s := pbe2Sketch(t, 5, 256, 2)
	oracle := loadSketch(t, s, data)
	r := rand.New(rand.NewSource(2))
	var sumErr float64
	trials := 0
	for _, e := range oracle.Events() {
		for i := 0; i < 5; i++ {
			q := int64(r.Intn(int(oracle.MaxTime()) + 1))
			got := s.EstimateF(e, q)
			want := float64(oracle.CumFreq(e, q))
			sumErr += math.Abs(got - want)
			trials++
		}
	}
	mean := sumErr / float64(trials)
	// εN with w=256 is about e/256·30000 ≈ 319 in the worst case; the
	// median estimate should do far better on average.
	if mean > 100 {
		t.Fatalf("mean |F̃−F| = %.2f, too large", mean)
	}
}

func TestBurstinessCloseToExact(t *testing.T) {
	const n = 30000
	data := mixedStream(7, n, 50)
	s := pbe2Sketch(t, 5, 256, 2)
	oracle := loadSketch(t, s, data)
	r := rand.New(rand.NewSource(3))
	var sumErr float64
	trials := 0
	for _, e := range oracle.Events() {
		for i := 0; i < 5; i++ {
			q := int64(r.Intn(int(oracle.MaxTime()) + 1))
			tau := int64(1 + r.Intn(100))
			got := s.Burstiness(e, q, pbe.MustSpan(tau))
			want := float64(oracle.Burstiness(e, q, tau))
			sumErr += math.Abs(got - want)
			trials++
		}
	}
	if mean := sumErr / float64(trials); mean > 60 {
		t.Fatalf("mean |b̃−b| = %.2f, too large", mean)
	}
}

func TestMedianBeatsMinOnMixedStreams(t *testing.T) {
	// The min estimator inherits the PBE's downward bias and collisions'
	// upward bias asymmetrically; the median should have smaller or equal
	// aggregate error (the abl-med ablation in DESIGN.md).
	data := mixedStream(13, 20000, 60)
	s := pbe2Sketch(t, 5, 128, 3)
	oracle := loadSketch(t, s, data)
	r := rand.New(rand.NewSource(5))
	var medErr, minErr float64
	for _, e := range oracle.Events() {
		for i := 0; i < 4; i++ {
			q := int64(r.Intn(int(oracle.MaxTime()) + 1))
			want := float64(oracle.CumFreq(e, q))
			medErr += math.Abs(s.EstimateF(e, q) - want)
			minErr += math.Abs(s.EstimateFMin(e, q) - want)
		}
	}
	if medErr > minErr*1.1 {
		t.Fatalf("median error %.1f should not exceed min error %.1f by >10%%", medErr, minErr)
	}
}

func TestMoreSpaceHelps(t *testing.T) {
	data := mixedStream(17, 25000, 80)
	meanErr := func(w int) float64 {
		s := pbe2Sketch(t, 5, w, 2)
		oracle := loadSketch(t, s, data)
		r := rand.New(rand.NewSource(6))
		var sum float64
		trials := 0
		for _, e := range oracle.Events() {
			for i := 0; i < 3; i++ {
				q := int64(r.Intn(int(oracle.MaxTime()) + 1))
				sum += math.Abs(s.EstimateF(e, q) - float64(oracle.CumFreq(e, q)))
				trials++
			}
		}
		return sum / float64(trials)
	}
	small := meanErr(16)
	large := meanErr(512)
	if large > small {
		t.Fatalf("error should shrink with width: w=16 → %.2f, w=512 → %.2f", small, large)
	}
}

func TestBurstyTimesFindsInjectedBurst(t *testing.T) {
	// One event with a sharp, isolated burst among uniform noise events.
	var data stream.Stream
	r := rand.New(rand.NewSource(8))
	for tm := int64(0); tm < 5000; tm++ {
		data = append(data, stream.Element{Event: uint64(1 + r.Intn(20)), Time: tm})
		if tm >= 3000 && tm < 3100 {
			for j := 0; j < 10; j++ {
				data = append(data, stream.Element{Event: 0, Time: tm})
			}
		}
	}
	s := pbe2Sketch(t, 5, 256, 2)
	loadSketch(t, s, data)
	tau := int64(100)
	ranges := s.BurstyTimes(0, 500, pbe.MustSpan(tau))
	found := false
	for _, rg := range ranges {
		if rg.Start <= 3100 && rg.End >= 3050 {
			found = true
		}
		// Nothing should fire far from the burst window.
		if rg.End < 2900 || rg.Start > 3400 {
			t.Fatalf("spurious bursty range %+v", rg)
		}
	}
	if !found {
		t.Fatalf("burst near t=3100 not found; got %v", ranges)
	}
}

func TestBookkeeping(t *testing.T) {
	s := pbe2Sketch(t, 3, 16, 2)
	s.Append(1, 10)
	s.Append(2, 20)
	s.Finish()
	if s.N() != 2 || s.MaxTime() != 20 {
		t.Fatalf("N=%d MaxTime=%d", s.N(), s.MaxTime())
	}
	if s.Bytes() <= 0 {
		t.Fatal("Bytes should be positive after data")
	}
	// Deterministic across constructions with the same seed.
	s2 := pbe2Sketch(t, 3, 16, 2)
	s2.Append(1, 10)
	s2.Append(2, 20)
	s2.Finish()
	if s.EstimateF(1, 15) != s2.EstimateF(1, 15) {
		t.Fatal("same seed should give identical estimates")
	}
}

func TestViewBreakpoints(t *testing.T) {
	s := pbe2Sketch(t, 3, 4, 2)
	for i := int64(0); i < 100; i++ {
		s.Append(uint64(i%3), i*2)
	}
	s.Finish()
	bps := s.breakpoints(1)
	if len(bps) == 0 {
		t.Fatal("event has no breakpoints")
	}
	for i := 1; i < len(bps); i++ {
		if bps[i] <= bps[i-1] {
			t.Fatal("event breakpoints not sorted/unique")
		}
	}
}
