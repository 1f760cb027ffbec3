package wire

import (
	"math/rand"
	"testing"

	"histburst"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// answerSources builds one olympicrio stream (120 000 elements over its
// month, moved to a Unix-second origin) twice: into a K = 1024 detector and
// into a volatile store sealed as 12 time-ordered segments.
func answerSources(b testing.TB) (*histburst.Detector, *segstore.Snapshot) {
	b.Helper()
	const origin, segments = 1_700_000_000, 12
	base, err := workload.Generate(workload.OlympicRioSpec(2016, 120_000))
	if err != nil {
		b.Fatal(err)
	}
	elems := make(stream.Stream, len(base))
	for i, el := range base {
		elems[i] = stream.Element{Event: el.Event, Time: origin + el.Time}
	}
	det, err := histburst.New(1024, histburst.WithPBE2(8), histburst.WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	for _, el := range elems {
		det.Append(el.Event, el.Time)
	}
	det.Finish()
	p := det.Params()
	st, err := segstore.Open("", segstore.Config{K: p.K, Gamma: p.Gamma, Seed: p.Seed, D: p.D, W: p.W, SealEvents: -1, CompactFanout: -1, ScrubInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() }) //histburst:allow errdrop -- benchmark teardown
	for i := 0; i < segments; i++ {
		part := elems[i*len(elems)/segments : (i+1)*len(elems)/segments]
		if _, rej, err := st.AppendBatch(part); err != nil || rej > 0 {
			b.Fatalf("AppendBatch: %d rejected, %v", rej, err)
		}
		if err := st.Checkpoint(true); err != nil {
			b.Fatal(err)
		}
	}
	sn := st.Snapshot()
	if n := len(sn.Segments()); n != segments {
		b.Fatalf("store sealed %d segments, want %d", n, segments)
	}
	return det, sn
}

// BenchmarkAnswer times the read path alone — wire.Answer* over a Querier,
// with no codec and no transport — on a 16-query POINT batch, the shape the
// benchmark's wire_query frames carry, and on a BURSTY-EVENTS query, each
// over a detector and over a 12-segment snapshot of the same stream. The
// queries cycle over fixed sets drawn from the stream's volume and span.
func BenchmarkAnswer(b *testing.B) {
	det, sn := answerSources(b)
	rng := rand.New(rand.NewSource(7))
	lo, span := det.MinTime(), det.MaxTime()-det.MinTime()+1
	batches := make([][]PointQuery, 64)
	for i := range batches {
		batches[i] = make([]PointQuery, 16)
		for j := range batches[i] {
			batches[i][j] = PointQuery{Event: uint64(rng.Intn(1024)), T: lo + rng.Int63n(span), Tau: DefaultTau}
		}
	}
	instants := make([]int64, 64)
	for i := range instants {
		instants[i] = lo + rng.Int63n(span)
	}
	const theta = 300
	for _, src := range []struct {
		name string
		q    Querier
	}{{"detector", det}, {"snapshot", sn}} {
		b.Run("Point/"+src.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AnswerPoint(src.q, batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Events/"+src.name, func(b *testing.B) {
			hits := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, _, err := AnswerEvents(src.q, instants[i%len(instants)], theta, DefaultTau)
				if err != nil {
					b.Fatal(err)
				}
				hits += len(h)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}
