package segstore

import (
	"fmt"
	"testing"
)

// The decay benchmarks pin the three payoffs of time-decayed compaction
// (see ISSUE/ROADMAP item 2): the streaming downsample kernel beats the
// naive rebuild twin (DecayRun vs DecayRunNaive), the retained footprint of
// a long stream shrinks with decay on vs off (DecayFootprint, reported as a
// retained-bytes metric family), and deep-history queries over coarsened
// segments get cheaper, not slower (DeepHistory legs).

// benchDecayFixture seals 4 segments of 4096 elements and picks the decay
// run a far-future frontier would re-summarize. The tier age sits far past
// the stream span and the fanout far above the segment count, so settling
// leaves the layout as sealed and the run is stable.
func benchDecayFixture(b *testing.B) (s *Store, run []*Segment, target int) {
	b.Helper()
	cfg := testConfig(-1)
	cfg.K = 1 << 10
	cfg.CompactFanout = 64 // ≥ 2 as decay tiers require, > segment count so nothing merges
	cfg.DecayTiers = []DecayTier{{Age: 1 << 40, Gamma: 8, W: 8, Res: 64}}
	s = openStepped(b, "", cfg)
	t := int64(0)
	for g := 0; g < 4; g++ {
		for i := 0; i < 4096; i++ {
			if err := s.Append(uint64(i)%cfg.K, t); err != nil {
				b.Fatal(err)
			}
			t++
		}
		if err := s.Checkpoint(true); err != nil {
			b.Fatal(err)
		}
	}
	settle(b, s)
	runs, targets := s.pickDecayRuns(s.view.Load().segs, t+1<<41)
	if len(runs) != 1 {
		b.Fatalf("fixture picked %d decay runs, want 1", len(runs))
	}
	return s, runs[0], targets[0]
}

// BenchmarkSegstoreDecayRun measures the streaming downsample merge kernel:
// re-summarizing a 4-segment run to tier fidelity (γ 2→8, w 32→8, 64-tick
// grid) in one pooled pass over the source cells.
func BenchmarkSegstoreDecayRun(b *testing.B) {
	s, run, target := benchDecayFixture(b)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := s.decayRun(run, target)
		if err != nil {
			b.Fatal(err)
		}
		if seg.meta.Tier != target {
			b.Fatalf("decayed to tier %d, want %d", seg.meta.Tier, target)
		}
	}
}

// BenchmarkSegstoreDecayRunNaive is the retained reference twin: merge at
// full fidelity, then rebuild each layer from scratch at the tier's params.
func BenchmarkSegstoreDecayRunNaive(b *testing.B) {
	s, run, target := benchDecayFixture(b)
	defer s.Close() //histburst:allow errdrop -- benchmark teardown
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := s.decayRunNaive(run, target)
		if err != nil {
			b.Fatal(err)
		}
		if seg.meta.Tier != target {
			b.Fatalf("decayed to tier %d, want %d", seg.meta.Tier, target)
		}
	}
}

// buildDecayHistory streams ~42 days of synthetic history (6000 elements,
// one per 10 minutes over 8 events) through the full seal → compact → decay
// lifecycle and settles it. With decay off
// the same stream is sealed and compacted at full fidelity.
func buildDecayHistory(b *testing.B, decay bool) *Store {
	b.Helper()
	const (
		n    = 6000
		span = 8
		dt   = 600
	)
	cfg := decayConfig(64)
	if !decay {
		cfg.DecayTiers = nil
	}
	s := openStepped(b, "", cfg)
	tm := int64(0)
	for i := 0; i < n; i++ {
		if err := s.Append(uint64(i)%span, tm); err != nil {
			b.Fatal(err)
		}
		tm += dt
	}
	if err := s.Checkpoint(true); err != nil {
		b.Fatal(err)
	}
	settle(b, s)
	return s
}

// BenchmarkSegstoreDecayFootprint reports the bytes retained after the
// synthetic multi-week stream as a metric family: retained-bytes is the
// whole store, tierN-bytes the per-tier split from Snapshot.Tiers. The
// decay leg must come out far below the full leg on the same stream —
// that delta is the O(log T) claim of DESIGN.md §11. ns/op here is
// the full ingest+seal+decay lifecycle cost for the stream, so it doubles
// as a check that decay does not blow up the ingest path.
func BenchmarkSegstoreDecayFootprint(b *testing.B) {
	for _, m := range []struct {
		name  string
		decay bool
	}{{"decay", true}, {"full", false}} {
		b.Run(m.name, func(b *testing.B) {
			var tiers []TierStats
			var bytes int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := buildDecayHistory(b, m.decay)
				sn := s.Snapshot()
				tiers, bytes = sn.Tiers(), sn.Bytes()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bytes), "retained-bytes")
			for _, ts := range tiers {
				b.ReportMetric(float64(ts.Bytes), fmt.Sprintf("tier%d-bytes", ts.Tier))
			}
		})
	}
}

// BenchmarkSegstoreDeepHistory measures historical query latency over the
// decayed vs the full-fidelity store: the same multi-week stream, queried
// deep in the past where the decayed store holds coarse wide-γ segments.
// Coarser old segments mean fewer cells scanned, so the decayed legs must
// be no worse than the full legs.
func BenchmarkSegstoreDeepHistory(b *testing.B) {
	const (
		span = 8
		dt   = 600
	)
	for _, m := range []struct {
		name  string
		decay bool
	}{{"decayed", true}, {"full", false}} {
		s := buildDecayHistory(b, m.decay)
		defer s.Close() //histburst:allow errdrop -- benchmark teardown
		sn := s.Snapshot()
		deep := sn.MaxTime() / 4 // tier-2 territory: >10 days behind the frontier
		tau := int64(span) * dt

		b.Run("point/"+m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sn.Burstiness(uint64(i)%span, deep, tau); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("events/"+m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sn.BurstyEvents(deep, 2, tau); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("times/"+m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sn.BurstyTimes(uint64(i)%span, 2, tau); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
