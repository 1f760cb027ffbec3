// Microbenchmarks for the core operations' throughput and latency. The
// paper's tables and figures are not benchmarks here: cmd/burstbench prints
// them and internal/experiments' TestAllExperimentsRun runs every one.
package histburst_test

import (
	"fmt"
	"math/rand"
	"testing"

	"histburst"
	"histburst/internal/cmpbe"
	"histburst/internal/exact"
	"histburst/internal/pbe1"
	"histburst/internal/pbe2"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// benchTimestamps builds a reusable duplicate-heavy timestamp sequence.
func benchTimestamps(n int) stream.TimestampSeq {
	r := rand.New(rand.NewSource(42))
	ts := make(stream.TimestampSeq, n)
	cur := int64(0)
	for i := range ts {
		if r.Intn(4) == 0 {
			cur += int64(1 + r.Intn(50))
		}
		ts[i] = cur
	}
	return ts
}

func BenchmarkPBE1Append(b *testing.B) {
	ts := benchTimestamps(b.N)
	p, err := pbe1.New(1500, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Append(ts[i])
	}
	p.Finish()
}

func BenchmarkPBE2Append(b *testing.B) {
	ts := benchTimestamps(b.N)
	p, err := pbe2.New(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Append(ts[i])
	}
	p.Finish()
}

func BenchmarkPBE1Compress(b *testing.B) {
	// The dynamic program on one full buffer (CHT variant): the dominant
	// construction cost of PBE-1.
	ts := benchTimestamps(300_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pbe1.New(1500, 200)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range ts {
			p.Append(t)
		}
		p.Finish()
	}
}

func BenchmarkPBE1Estimate(b *testing.B) {
	p, _ := pbe1.New(1500, 100)
	for _, t := range benchTimestamps(200_000) {
		p.Append(t)
	}
	p.Finish()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Estimate(int64(i % 1_000_000))
	}
	_ = sink
}

func BenchmarkPBE2Estimate(b *testing.B) {
	p, _ := pbe2.New(4)
	for _, t := range benchTimestamps(200_000) {
		p.Append(t)
	}
	p.Finish()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Estimate(int64(i % 1_000_000))
	}
	_ = sink
}

// benchDetector builds a shared detector over a mixed stream.
func benchDetector(b *testing.B, k uint64, n int, opts ...histburst.Option) (*histburst.Detector, stream.Stream) {
	b.Helper()
	r := rand.New(rand.NewSource(7))
	data := make(stream.Stream, n)
	cur := int64(0)
	for i := range data {
		cur += int64(r.Intn(3))
		data[i] = stream.Element{Event: uint64(r.Intn(int(k))), Time: cur}
	}
	det, err := histburst.New(k, opts...)
	if err != nil {
		b.Fatal(err)
	}
	for _, el := range data {
		det.Append(el.Event, el.Time)
	}
	det.Finish()
	return det, data
}

// benchAppend times per-element ingest into one detector. Finish is inside
// the timed region: Append buffers a chunk, so a loop that stopped at the
// last Append would not pay for the elements still pending.
func benchAppend(b *testing.B, opts ...histburst.Option) {
	det, err := histburst.New(1024, opts...)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	events := make([]uint64, b.N)
	times := make([]int64, b.N)
	cur := int64(0)
	for i := 0; i < b.N; i++ {
		cur += int64(r.Intn(3))
		events[i], times[i] = uint64(r.Intn(1024)), cur
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Append(events[i], times[i])
	}
	det.Finish()
}

func BenchmarkDetectorAppend(b *testing.B) { benchAppend(b, histburst.WithPBE2(8)) }

// BenchmarkDetectorBuild is the construction cost the paper's §VI reports
// and lib_paper's set-up pays: a whole olympicrio stream into a fresh
// detector, Finish included, in ns per element. K=1024 is the benchmark's
// shape (three collision-free levels, one row each, heights 0, 4 and 8);
// K=65536 has six Count-Min levels under three collision-free ones, each
// costing its d=5 rows — the row where uneven level weights would show as a
// poor -cpu 2 over -cpu 1 ratio.
func BenchmarkDetectorBuild(b *testing.B) {
	data, err := workload.Generate(workload.OlympicRioSpec(1, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []uint64{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				det, err := histburst.New(k, histburst.WithPBE2(8))
				if err != nil {
					b.Fatal(err)
				}
				for _, el := range data {
					det.Append(el.Event, el.Time)
				}
				det.Finish()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/elem")
		})
	}
}

// BenchmarkSingleAppend is a single-event summary's construction cost:
// 100 000 arrivals, four an instant, into a fresh Single, Finish included, in
// ns per arrival. PBE-2 summarizes a steady rate in a few segments, so what a
// build pays beside its cell's own work — staging, bookkeeping — shows, and
// B/op is what it allocates beside the summary.
func BenchmarkSingleAppend(b *testing.B) {
	ts := make([]int64, 100_000)
	for i := range ts {
		ts[i] = int64(i / 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := histburst.NewSingle(histburst.WithPBE2(8))
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range ts {
			s.Append(t)
		}
		s.Finish()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ts)), "ns/elem")
}

func BenchmarkPointQuery(b *testing.B) {
	det, _ := benchDetector(b, 256, 100_000, histburst.WithPBE2(8))
	horizon := det.MaxTime()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v, err := det.Burstiness(uint64(i%256), int64(i)%horizon, 1000)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	_ = sink
}

// BenchmarkBurstyTimeQuery times the point query swept over the shifted
// breakpoints. uniform is a toy, 64 ids over one collision-free level; the
// olympicrio rows ask the benchmark's 256 most popular ids (θ = n/5000, τ =
// one day) of its 600 k-element stream: at K = 1024 the leaves are
// collision-free, at K = 65536 every answer is a median of five Count-Min
// rows.
func BenchmarkBurstyTimeQuery(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		det, _ := benchDetector(b, 64, 100_000, histburst.WithPBE2(8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := det.BurstyTimes(uint64(i%64), 50, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
	benchOlympicRioGrid(b, func(det *histburst.Detector, e uint64, _ int64, theta float64, tau int64) error {
		_, err := det.BurstyTimes(e, theta, tau)
		return err
	})
}

// BenchmarkBurstyEventQuery times the pruned index search. uniform is a toy —
// 1024 equally quiet ids, so nearly every query is pruned at the root — kept
// for its history; the olympicrio rows sweep the benchmark's 256-instant grid
// (θ = n/5000, τ = one day) over its 600 k-element stream: K = 1024 is
// lib_paper's shape, three collision-free levels; at K = 65536 the search
// descends through six Count-Min levels.
func BenchmarkBurstyEventQuery(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		det, _ := benchDetector(b, 1024, 100_000, histburst.WithPBE2(8))
		horizon := det.MaxTime()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := det.BurstyEvents(int64(i)%horizon, 100, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
	benchOlympicRioGrid(b, func(det *histburst.Detector, _ uint64, t int64, theta float64, tau int64) error {
		_, err := det.BurstyEvents(t, theta, tau)
		return err
	})
}

// BenchmarkTopBurstyQuery times the best-first TOP search over the same
// olympicrio detectors and instant grid as BenchmarkBurstyEventQuery, k = 10.
func BenchmarkTopBurstyQuery(b *testing.B) {
	benchOlympicRioGrid(b, func(det *histburst.Detector, _ uint64, t int64, _ float64, tau int64) error {
		_, err := det.TopBursty(t, 10, tau)
		return err
	})
}

// benchOlympicRioGrid runs query over the benchmark's 256-point grid (θ =
// n/5000, τ = one day) on a 600 k-element olympicrio detector at K = 1024
// and K = 65536, one sub-benchmark each. Point i of the grid is the i-th of
// 256 evenly spaced instants and the i-th most popular id (the scenario
// numbers its ids by popularity).
func benchOlympicRioGrid(b *testing.B, query func(det *histburst.Detector, e uint64, t int64, theta float64, tau int64) error) {
	spec := workload.OlympicRioSpec(2016, 600_000)
	spec.Seed = 1
	data, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []uint64{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("olympicrio/K=%d", k), func(b *testing.B) {
			det, err := histburst.New(k, histburst.WithPBE2(8))
			if err != nil {
				b.Fatal(err)
			}
			for _, el := range data {
				det.Append(el.Event, el.Time)
			}
			det.Finish()
			const tau, grid = workload.Day, 256
			theta := float64(len(data)) / 5000
			span := det.MaxTime() - 2*tau
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % grid
				if err := query(det, uint64(j), 2*tau+span*int64(j)/grid, theta, tau); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExactBaselinePointQuery(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	st := exact.New()
	cur := int64(0)
	for i := 0; i < 100_000; i++ {
		cur += int64(r.Intn(3))
		st.Append(uint64(r.Intn(256)), cur)
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += st.Burstiness(uint64(i%256), int64(i)%st.MaxTime(), 1000)
	}
	_ = sink
}

func BenchmarkCMPBEInsert(b *testing.B) {
	sk, err := cmpbe.New(4, 272, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	cur := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur += int64(r.Intn(2))
		sk.Append(uint64(r.Intn(4096)), cur)
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := workload.Generate(workload.OlympicRioSpec(int64(i), 50_000))
		if err != nil {
			b.Fatal(err)
		}
		if len(s) == 0 {
			b.Fatal("empty stream")
		}
	}
}
