package cmpbe

import (
	"math/rand"
	"testing"

	"histburst/internal/pbe"
)

// benchSketch builds a d=5 PBE-2 sketch over a mixed Zipf stream, the
// configuration the point-query acceptance benchmark is pinned to.
func benchSketch(b *testing.B) *Sketch {
	b.Helper()
	s, err := New(5, 272, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, el := range mixedStream(7, 200_000, 4096) {
		s.Append(el.Event, el.Time)
	}
	s.Finish()
	return s
}

// benchQueries precomputes a fixed query mix so the benchmark loop measures
// only the sketch.
func benchQueries(n int, horizon int64) ([]uint64, []int64) {
	r := rand.New(rand.NewSource(1))
	es := make([]uint64, n)
	ts := make([]int64, n)
	for i := range es {
		es[i] = uint64(r.Intn(4096))
		ts[i] = int64(r.Intn(int(horizon + 1)))
	}
	return es, ts
}

func BenchmarkSketchBurstiness(b *testing.B) {
	s := benchSketch(b)
	es, ts := benchQueries(8192, s.MaxTime())
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		j := i & 8191
		sink += s.Burstiness(es[j], ts[j], pbe.MustSpan(1000))
	}
	_ = sink
}

// BenchmarkSketchBurstinessNaive measures the pre-optimization evaluation
// path (allocating median buffer, three independent segment searches per
// row) over the same query mix: BenchmarkSketchBurstiness's "before".
func BenchmarkSketchBurstinessNaive(b *testing.B) {
	s := benchSketch(b)
	es, ts := benchQueries(8192, s.MaxTime())
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		j := i & 8191
		sink += s.burstinessNaive(es[j], ts[j], pbe.MustSpan(1000))
	}
	_ = sink
}

func BenchmarkSketchEstimateF(b *testing.B) {
	s := benchSketch(b)
	es, ts := benchQueries(8192, s.MaxTime())
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		j := i & 8191
		sink += s.EstimateF(es[j], ts[j])
	}
	_ = sink
}

func BenchmarkSketchBurstyTimes(b *testing.B) {
	s := benchSketch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BurstyTimes(uint64(i%4096), 20, pbe.MustSpan(1000))
	}
}

func BenchmarkViewBreakpoints(b *testing.B) {
	s := benchSketch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.breakpoints(uint64(i % 4096))
	}
}
