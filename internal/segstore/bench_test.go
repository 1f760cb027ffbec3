package segstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"histburst/internal/pbe"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// rioHeadElems is the head the benchmark's http_mixed workload accumulates
// before its first seal: the first 53 800 elements of the olympicrio month
// (600 000 elements, scenario seed 2016, arrival seed 1) — 864 ids, a few
// hot, a long tail of rare ones — moved to a Unix-second origin.
var rioHeadElems = sync.OnceValue(func() stream.Stream {
	const (
		headLen = 53_800
		origin  = int64(1_700_000_000)
	)
	spec := workload.OlympicRioSpec(2016, 600_000)
	spec.Seed = 1
	base, err := workload.Generate(spec)
	if err != nil {
		panic(err)
	}
	elems := make(stream.Stream, headLen)
	for i := range elems {
		elems[i] = stream.Element{Event: base[i].Event, Time: origin + base[i].Time}
	}
	return elems
})

// rioHead returns a fresh live head holding rioHeadElems.
func rioHead(tb testing.TB) *memHead {
	tb.Helper()
	elems := rioHeadElems()
	h := newMemHead(0)
	if _, acc, _, _ := h.appendBatch(elems, 1024, 0); acc != int64(len(elems)) {
		tb.Fatalf("appendBatch accepted %d of %d", acc, len(elems))
	}
	return h
}

// rioQueries draws n (event, instant) pairs over rioHeadElems: events in
// proportion to their volume, instants uniform over the head's span.
func rioQueries(n int) (es []uint64, ts []int64) {
	elems := rioHeadElems()
	rng := rand.New(rand.NewSource(7))
	lo, span := elems[0].Time, elems[len(elems)-1].Time-elems[0].Time+1
	es, ts = make([]uint64, n), make([]int64, n)
	for i := range es {
		es[i] = elems[rng.Intn(len(elems))].Event
		ts[i] = lo + rng.Int63n(span)
	}
	return es, ts
}

// benchTau is the serving default burst span, one day.
const benchTau = 86_400

// BenchmarkHeadAppend fills the benchmark-shaped head in 512-element
// batches, the stager's shape. One op is the whole head; ns/elem is the
// per-element cost.
func BenchmarkHeadAppend(b *testing.B) {
	elems := rioHeadElems()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := newMemHead(0)
		for lo := 0; lo < len(elems); lo += 512 {
			h.appendBatch(elems[lo:min(lo+512, len(elems))], 1024, 0)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(elems)), "ns/elem")
}

// BenchmarkHeadPoint measures the head's exact share of a POINT query — three
// counts under the read lock — on the benchmark-shaped head.
func BenchmarkHeadPoint(b *testing.B) {
	h := rioHead(b)
	es, ts := rioQueries(4096)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 4095
		sink += h.burstiness(es[j], ts[j], pbe.MustSpan(benchTau))
	}
	benchSink = sink
}

var benchSink float64

// BenchmarkHeadInOrder measures the head read back as one time-ordered
// stream, the sealer's and the WAL rotation's read. One op is the whole head.
func BenchmarkHeadInOrder(b *testing.B) {
	h := rioHead(b)
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.inOrder(func(uint64, int64) { n++ })
	}
	if n != b.N*len(rioHeadElems()) {
		b.Fatalf("inOrder yielded %d elements, want %d", n, b.N*len(rioHeadElems()))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/elem")
}

// BenchmarkWALRecord prices the log's record codec on the benchmark's
// stream, at http_mixed's 64-element commits and wire_ingest's 4096-element
// bulk: encode is what a commit spends before its write and fsync, decode
// what Open spends replaying the record.
func BenchmarkWALRecord(b *testing.B) {
	for _, n := range []int{64, 4096} {
		elems := rioHeadElems()[:n]
		frame := encodeWALRecord(0, elems)
		b.Run(fmt.Sprintf("encode/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame = encodeWALRecord(0, elems)
			}
			b.ReportMetric(float64(len(frame))/float64(n), "B/elem")
		})
		b.Run(fmt.Sprintf("decode/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeWALRecord(frame[walFrameHeader:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeadEventsInWindow measures the head's candidate set for a
// BURSTY-EVENT search over (t−2τ, t] on the benchmark-shaped head.
func BenchmarkHeadEventsInWindow(b *testing.B) {
	h := rioHead(b)
	_, ts := rioQueries(256)
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ts[i&255]
		n += len(h.eventsInWindow(t-2*benchTau+1, t))
	}
	benchSink = float64(n)
}

// benchStore builds a volatile store holding nSegs sealed segments of
// segElems elements each (compaction off, so the layout is deterministic).
func benchStore(b *testing.B, nSegs int, segElems int) *Store {
	b.Helper()
	cfg := testConfig(-1)
	cfg.K = 1 << 10
	cfg.CompactFanout = -1
	s, err := Open("", cfg)
	if err != nil {
		b.Fatal(err)
	}
	t := int64(0)
	for g := 0; g < nSegs; g++ {
		for i := 0; i < segElems; i++ {
			if err := s.Append(uint64(i)%cfg.K, t); err != nil {
				b.Fatal(err)
			}
			t++
		}
		if err := s.Checkpoint(true); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkSegstoreAppendSeal measures ingest throughput on the batch path
// — 512-element AppendBatch calls, the shape burstd's sharded stager feeds
// the store — with sealing in the loop: every 4096th element freezes the
// head and hands it to the background sealer. Reported per element.
func BenchmarkSegstoreAppendSeal(b *testing.B) {
	cfg := testConfig(4096)
	cfg.K = 1 << 10
	cfg.CompactFanout = -1
	s, err := Open("", cfg)
	if err != nil {
		b.Fatal(err)
	}
	const batchLen = 512
	batch := make(stream.Stream, batchLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		n := batchLen
		if i+n > b.N {
			n = b.N - i
		}
		for j := 0; j < n; j++ {
			batch[j] = stream.Element{Event: uint64(i+j) & 1023, Time: int64(i + j)}
		}
		if _, _, err := s.AppendBatch(batch[:n]); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Checkpoint(false); err != nil { // include the pending seals
		b.Fatal(err)
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSegstoreAppendSealElement is the per-element reference: one
// head-lock round trip per Append.
func BenchmarkSegstoreAppendSealElement(b *testing.B) {
	cfg := testConfig(4096)
	cfg.K = 1 << 10
	cfg.CompactFanout = -1
	s, err := Open("", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(uint64(i)&1023, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Checkpoint(false); err != nil { // include the pending seals
		b.Fatal(err)
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSegstoreCompactMerge measures compaction throughput: merging a
// run of 4 sealed segments of 4096 elements each into one.
func BenchmarkSegstoreCompactMerge(b *testing.B) {
	s := benchStore(b, 4, 4096)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	run := s.view.Load().segs
	if len(run) != 4 {
		b.Fatalf("fixture has %d segments", len(run))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, err := s.mergeRun(run)
		if err != nil {
			b.Fatal(err)
		}
		if merged.meta.Elements != 4*4096 {
			b.Fatalf("merged %d elements", merged.meta.Elements)
		}
	}
}

// BenchmarkSegstoreCrossSegmentPoint measures point-query latency over a
// store split into 16 sealed segments — the cost of summing per-segment
// estimates at the three instants of eq. (2) before the median.
func BenchmarkSegstoreCrossSegmentPoint(b *testing.B) {
	s := benchStore(b, 16, 1024)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	sn := s.Snapshot()
	horizon := sn.MaxTime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := int64(i) % horizon
		if _, err := sn.Burstiness(uint64(i)&1023, t, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegstoreSingleSegmentPoint is the single-segment reference for
// the cross-segment point query: same element count, one segment.
func BenchmarkSegstoreSingleSegmentPoint(b *testing.B) {
	s := benchStore(b, 1, 16*1024)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	sn := s.Snapshot()
	horizon := sn.MaxTime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := int64(i) % horizon
		if _, err := sn.Burstiness(uint64(i)&1023, t, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegstoreCrossSegmentTimes measures the BURSTY TIME query over the
// same 16-segment store: the breakpoint merge across every segment's cells,
// then the point query at each candidate instant.
func BenchmarkSegstoreCrossSegmentTimes(b *testing.B) {
	s := benchStore(b, 16, 1024)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	sn := s.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sn.BurstyTimes(uint64(i)&1023, 2, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// crossTau is the burst span of the cross-segment search benchmarks: under a
// 1024-instant id cycle, so each id lands in one half of (t−2τ, t] or the
// other or neither, and runs of ids that arrived together steer the walk
// down. The window spans two or three of benchStore's 1024-instant segments.
// crossTheta clears the sketch's 4γ error per segment in the window, so the
// EVENTS query, like most asked of a store without bursts, finds nothing.
const (
	crossTau   = 700
	crossTheta = 24
)

// BenchmarkSegstoreCrossSegmentEvents measures the BURSTY EVENT query over
// the same 16-segment store.
func BenchmarkSegstoreCrossSegmentEvents(b *testing.B) {
	s := benchStore(b, 16, 1024)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	sn := s.Snapshot()
	span := sn.MaxTime() - 2*crossTau
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sn.BurstyEvents(2*crossTau+int64(i)*997%span, crossTheta, crossTau); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegstoreCrossSegmentTop measures the top-10 query over the same
// store and instants.
func BenchmarkSegstoreCrossSegmentTop(b *testing.B) {
	s := benchStore(b, 16, 1024)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	sn := s.Snapshot()
	span := sn.MaxTime() - 2*crossTau
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sn.TopBursty(2*crossTau+int64(i)*997%span, 10, crossTau); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegstoreCrossSegmentBreakpoints isolates the merge half of it.
func BenchmarkSegstoreCrossSegmentBreakpoints(b *testing.B) {
	s := benchStore(b, 16, 1024)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	sn := s.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(sn.breakpoints(3)) == 0 {
			b.Fatal("no breakpoints")
		}
	}
}

// benchColdDir writes the 13-segment base layout the restart benchmarks
// open: 13 one-day segments of 4096 elements over 1024 ids.
func benchColdDir(b *testing.B) (dir string, cfg Config, frontier int64) {
	b.Helper()
	cfg = coldConfig()
	cfg.K = 1 << 10
	dir = b.TempDir()
	s, err := Open(dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	const perDay = 4096
	for d := int64(0); d < 13; d++ {
		for i := int64(0); i < perDay; i++ {
			frontier = coldOrigin + d*coldDay + i*(coldDay/perDay)
			if err := s.Append(uint64(i)&1023, frontier); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Checkpoint(true); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, cfg, frontier
}

// BenchmarkOpen measures a cold start on the 13-segment layout: read and
// verify every segment file against the manifest, decode none.
func BenchmarkOpen(b *testing.B) {
	dir, cfg, _ := benchColdDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := s.Snapshot().Resident(); n != 0 {
			b.Fatalf("%d segments resident after Open", n)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFirstTouchPoint measures the first POINT after a cold start — a
// frontier query with τ = one day, which decodes the segments its window
// overlaps — the latency Open no longer pays up front for every segment.
func BenchmarkFirstTouchPoint(b *testing.B) {
	dir, cfg, frontier := benchColdDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sn := s.Snapshot()
		b.StartTimer()
		if _, err := sn.Burstiness(3, frontier, coldDay); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := sn.Resident(); n == 0 || n > 3 {
			b.Fatalf("%d segments resident after one frontier POINT", n)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
