package segstore

import (
	"testing"

	"histburst/internal/stream"
)

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

// BenchmarkSegstoreCompactMerge measures compaction throughput: cloning and
// MergeAppend-ing a run of 4 sealed segments of 4096 elements each into one.
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
// then the cross-segment estimate at each candidate instant.
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

// BenchmarkSegstoreCrossSegmentBreakpoints isolates the merge half of it.
func BenchmarkSegstoreCrossSegmentBreakpoints(b *testing.B) {
	s := benchStore(b, 16, 1024)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	v := &crossView{sn: s.Snapshot(), e: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(v.Breakpoints()) == 0 {
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
