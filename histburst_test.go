package histburst

import (
	"math"
	"math/rand"
	"testing"

	"histburst/internal/exact"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// testStream builds a deterministic mixed stream with planted bursts on
// events 3 and 40.
func testStream(seed int64, k int, horizon int64) stream.Stream {
	r := rand.New(rand.NewSource(seed))
	var s stream.Stream
	for tm := int64(0); tm < horizon; tm++ {
		if r.Intn(2) == 0 {
			s = append(s, stream.Element{Event: uint64(r.Intn(k)), Time: tm})
		}
		if tm >= horizon/2 && tm < horizon/2+60 {
			for j := 0; j < 7; j++ {
				s = append(s, stream.Element{Event: 3, Time: tm})
			}
			for j := 0; j < 4; j++ {
				s = append(s, stream.Element{Event: 40, Time: tm})
			}
		}
	}
	return s
}

func loadDetector(t *testing.T, data stream.Stream, opts ...Option) (*Detector, *exact.Store) {
	t.Helper()
	det, err := New(64, opts...)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.New()
	for _, el := range data {
		det.Append(el.Event, el.Time)
		oracle.Append(el.Event, el.Time)
	}
	det.Finish()
	return det, oracle
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(10, WithPBE2(0.1)); err == nil {
		t.Error("invalid gamma accepted")
	}
	if _, err := New(10, WithSketchDims(0, 5)); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := New(10, WithErrorBounds(0, 0.5)); err == nil {
		t.Error("epsilon=0 accepted")
	}
	d, err := New(100, WithErrorBounds(0.05, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if d.K() != 128 {
		t.Fatalf("K = %d, want 128", d.K())
	}
}

func TestPointQueryAccuracy(t *testing.T) {
	data := testStream(1, 64, 4000)
	det, oracle := loadDetector(t, data, WithPBE2(2), WithSketchDims(5, 128))
	r := rand.New(rand.NewSource(2))
	var sumErr float64
	n := 0
	for _, e := range oracle.Events() {
		for i := 0; i < 10; i++ {
			q := int64(r.Intn(4000))
			tau := int64(10 + r.Intn(200))
			got, err := det.Burstiness(e, q, tau)
			if err != nil {
				t.Fatal(err)
			}
			sumErr += math.Abs(got - float64(oracle.Burstiness(e, q, tau)))
			n++
		}
	}
	if mean := sumErr / float64(n); mean > 25 {
		t.Fatalf("mean point-query error %.2f too large", mean)
	}
}

func TestCumulativeFrequency(t *testing.T) {
	data := testStream(3, 64, 3000)
	det, oracle := loadDetector(t, data, WithPBE2(2), WithSketchDims(5, 128))
	var sumErr float64
	n := 0
	for _, e := range oracle.Events() {
		for q := int64(0); q <= 3000; q += 97 {
			sumErr += math.Abs(det.CumulativeFrequency(e, q) - float64(oracle.CumFreq(e, q)))
			n++
		}
	}
	if mean := sumErr / float64(n); mean > 20 {
		t.Fatalf("mean frequency error %.2f too large", mean)
	}
}

func TestBurstyTimesFindsPlantedBurst(t *testing.T) {
	data := testStream(5, 64, 4000)
	det, _ := loadDetector(t, data, WithPBE2(2), WithSketchDims(5, 128))
	ranges, err := det.BurstyTimes(3, 200, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) == 0 {
		t.Fatal("planted burst not found")
	}
	for _, rg := range ranges {
		if rg.End < 1950 || rg.Start > 2250 {
			t.Fatalf("spurious bursty range %+v (burst is at 2000..2060)", rg)
		}
	}
}

func TestBurstyEventsFindsPlantedEvents(t *testing.T) {
	data := testStream(7, 64, 4000)
	det, oracle := loadDetector(t, data, WithPBE2(2), WithSketchDims(5, 128))
	q := int64(2059)
	tau := int64(60)
	theta := 150.0
	got, err := det.BurstyEvents(q, theta, tau)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.BurstyEvents(q, int64(theta), tau)
	gotSet := make(map[uint64]bool)
	for _, e := range got {
		gotSet[e] = true
	}
	for _, e := range want {
		if !gotSet[e] {
			t.Fatalf("missed bursty event %d (got %v, want %v)", e, got, want)
		}
	}
}

func TestTopBursty(t *testing.T) {
	data := testStream(15, 64, 4000)
	det, oracle := loadDetector(t, data, WithPBE2(2), WithSketchDims(5, 128))
	q, tau := int64(2059), int64(60)
	top, err := det.TopBursty(q, 2, tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("got %d results", len(top))
	}
	// The two planted bursts (events 3 and 40) dominate.
	want := map[uint64]bool{3: true, 40: true}
	for _, s := range top {
		if !want[s.Event] {
			t.Fatalf("unexpected top event %d (want 3 and 40): %v", s.Event, top)
		}
	}
	if top[0].Burstiness < top[1].Burstiness {
		t.Fatal("results not descending")
	}
	_ = oracle
	if _, err := det.TopBursty(q, 0, tau); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestOutOfOrderClamping(t *testing.T) {
	det, _ := New(8)
	det.Append(1, 100)
	det.Append(2, 50)
	det.Append(1, 100)
	if det.OutOfOrder() != 1 {
		t.Fatalf("OutOfOrder = %d", det.OutOfOrder())
	}
	if det.N() != 3 || det.MaxTime() != 100 {
		t.Fatalf("N=%d MaxTime=%d", det.N(), det.MaxTime())
	}
}

func TestDeterministicReplicas(t *testing.T) {
	mk := func() *Detector {
		det, err := New(64, WithSeed(77), WithPBE2(2))
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	a, b := mk(), mk()
	data := testStream(13, 64, 1500)
	for _, el := range data {
		a.Append(el.Event, el.Time)
		b.Append(el.Event, el.Time)
	}
	a.Finish()
	b.Finish()
	for e := uint64(0); e < 64; e += 7 {
		for q := int64(0); q < 1500; q += 131 {
			av, _ := a.Burstiness(e, q, 40)
			bv, _ := b.Burstiness(e, q, 40)
			if av != bv {
				t.Fatalf("replicas diverge at e=%d t=%d: %v vs %v", e, q, av, bv)
			}
		}
	}
}

func TestEndToEndOlympicScale(t *testing.T) {
	// Small-scale end-to-end: olympicrio-like workload through the public
	// API; soccer's biggest burst must be found near the final (day ~20).
	if testing.Short() {
		t.Skip("workload generation")
	}
	spec := workload.OlympicRioSpec(1, 120_000)
	data, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(workload.OlympicRioK, WithPBE2(8), WithSketchDims(5, 512))
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range data {
		det.Append(el.Event, el.Time)
	}
	det.Finish()
	tau := workload.Day
	var bestDay int64
	best := math.Inf(-1)
	for day := int64(2); day <= 30; day++ {
		b, err := det.Burstiness(workload.SoccerID, day*workload.Day, tau)
		if err != nil {
			t.Fatal(err)
		}
		if b > best {
			best, bestDay = b, day
		}
	}
	if bestDay < 18 || bestDay > 22 {
		t.Fatalf("soccer peak burst at day %d, want ≈20", bestDay)
	}
	// The summary must be far smaller than the raw stream (16 B/element).
	if det.Bytes() > 16*len(data) {
		t.Fatalf("summary (%d B) larger than raw stream (%d B)", det.Bytes(), 16*len(data))
	}
}
