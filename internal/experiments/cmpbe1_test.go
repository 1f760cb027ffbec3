package experiments

import (
	"math"
	"math/rand"
	"testing"

	"histburst/internal/exact"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// zipfStream generates a sorted stream over k events with Zipf popularity.
func zipfStream(seed int64, n, k int) stream.Stream {
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

// cmPBE1Fixture is a d=5, w=128 CM-PBE-1 of η=20 over 20 000 arrivals of 40
// events, with the exact oracle of the same stream.
func cmPBE1Fixture(t *testing.T) (*cmPBE1, *exact.Store) {
	t.Helper()
	s, err := newCMPBE1(5, 128, 9, 20)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.New()
	for _, el := range zipfStream(11, 20000, 40) {
		s.Append(el.Event, el.Time)
		oracle.Append(el.Event, el.Time)
	}
	s.Finish()
	return s, oracle
}

func TestCMPBE1Variant(t *testing.T) {
	s, oracle := cmPBE1Fixture(t)
	r := rand.New(rand.NewSource(4))
	var sumErr float64
	trials := 0
	for _, e := range oracle.Events() {
		q := int64(r.Intn(int(oracle.MaxTime()) + 1))
		sumErr += math.Abs(s.EstimateF(e, q) - float64(oracle.CumFreq(e, q)))
		trials++
	}
	if mean := sumErr / float64(trials); mean > 120 {
		t.Fatalf("CM-PBE-1 mean error %.2f too large", mean)
	}
}

// TestCMPBE1Burstiness: the paper's CM-PBE-1 baseline answers burstiness
// within a mean |b̃−b| of 25 at τ=50, five random instants per event. Its
// one-cell-per-id mode answers each id from its own PBE-1 cell.
func TestCMPBE1Burstiness(t *testing.T) {
	s, oracle := cmPBE1Fixture(t)
	direct, err := newDirectPBE1(40, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range zipfStream(11, 20000, 40) {
		direct.Append(el.Event, el.Time)
	}
	direct.Finish()
	r := rand.New(rand.NewSource(4))
	for _, sk := range []*cmPBE1{s, direct} {
		var sumErr float64
		trials := 0
		for _, e := range oracle.Events() {
			for i := 0; i < 5; i++ {
				q := int64(r.Intn(int(oracle.MaxTime()) + 1))
				sumErr += math.Abs(sk.Burstiness(e, q, pbe.MustSpan(50)) - float64(oracle.Burstiness(e, q, 50)))
				trials++
			}
		}
		if mean := sumErr / float64(trials); mean > 25 {
			t.Fatalf("CM-PBE-1 (d=%d) mean burstiness error %.2f too large", sk.d, mean)
		}
	}
}
