package wire

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"histburst"
	"histburst/internal/segstore"
	"histburst/internal/stream"
)

// burstDetector builds a K = 64 detector over [1.7·10⁹, 1.7·10⁹+3000) with
// bursts planted on events 3 and 9.
func burstDetector(t *testing.T) *histburst.Detector {
	t.Helper()
	det, err := histburst.New(64, histburst.WithPBE2(2), histburst.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	const origin = 1_700_000_000
	for tm := int64(origin); tm < origin+3000; tm++ {
		det.Append(uint64(tm%40), tm)
		if tm >= origin+2000 && tm < origin+2100 {
			for j := 0; j < 4; j++ {
				det.Append(3, tm)
				det.Append(9, tm)
			}
		}
	}
	det.Finish()
	return det
}

func TestAnswerValidation(t *testing.T) {
	if DefaultTau != 86_400 || DefaultK != 10 {
		t.Fatalf("defaults τ=%d k=%d, want 86400 and 10", DefaultTau, DefaultK)
	}
	det := burstDetector(t)
	over := make([]PointQuery, MaxBatchQueries+1)
	for i := range over {
		over[i].Tau = 60
	}
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"empty batch", func() error { _, err := AnswerPoint(det, nil); return err }, "empty batch"},
		{"batch limit", func() error { _, err := AnswerPoint(det, over); return err },
			"batch of 10001 exceeds the 10000-query limit"},
		{"point τ", func() error {
			_, err := AnswerPoint(det, []PointQuery{{Event: 1, T: 5, Tau: 60}, {Event: 1, T: 5}})
			return err
		}, "query 1: burst span must be positive, got 0"},
		{"point negative τ", func() error {
			_, err := AnswerPoint(det, []PointQuery{{Event: 1, T: 5, Tau: -1}})
			return err
		}, "query 0: burst span must be positive, got -1"},
		{"times τ", func() error { _, _, err := AnswerTimes(det, 1, 10, 0); return err },
			"burst span must be positive, got 0"},
		{"events θ", func() error { _, _, err := AnswerEvents(det, 5, 0, 60); return err },
			"threshold must be positive, got 0"},
		{"events negative θ", func() error { _, _, err := AnswerEvents(det, 5, -1.5, 60); return err },
			"threshold must be positive, got -1.5"},
		{"events NaN θ", func() error { _, _, err := AnswerEvents(det, 5, math.NaN(), 60); return err },
			"threshold must be positive, got NaN"},
		{"times NaN θ", func() error { _, _, err := AnswerTimes(det, 1, math.NaN(), 60); return err },
			"threshold must be a number, got NaN"},
		{"events τ", func() error { _, _, err := AnswerEvents(det, 5, 10, -2); return err },
			"burst span must be positive, got -2"},
		{"top k", func() error { _, _, err := AnswerTop(det, 5, 0, 60); return err },
			"k must be positive, got 0"},
		{"top τ", func() error { _, _, err := AnswerTop(det, 5, 3, 0); return err },
			"burst span must be positive, got 0"},
	}
	for _, tc := range cases {
		if err := tc.call(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestWireZeroIsDefault: HBP1 cannot say "absent", so a zero τ or k on the
// wire answers as the default would.
func TestWireZeroIsDefault(t *testing.T) {
	b := newTestBackend(t, t.TempDir())
	c := pipeClient(t, b, 0)
	if _, err := c.Append(seq([]uint64{3, 3, 5, 3, 5, 7, 3}, 100)); err != nil {
		t.Fatal(err)
	}
	same := func(what string, zero, explicit func() (any, error)) {
		t.Helper()
		z, err1 := zero()
		x, err2 := explicit()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(z, x) {
			t.Errorf("%s: zero %v (%v), default %v (%v)", what, z, err1, x, err2)
		}
	}
	same("point", func() (any, error) { return c.Point([]PointQuery{{Event: 3, T: 106}}) },
		func() (any, error) { return c.Point([]PointQuery{{Event: 3, T: 106, Tau: DefaultTau}}) })
	same("times", func() (any, error) { r, _, err := c.Times(3, 0.5, 0); return r, err },
		func() (any, error) { r, _, err := c.Times(3, 0.5, DefaultTau); return r, err })
	same("events", func() (any, error) { h, _, err := c.Events(106, 0.5, 0); return h, err },
		func() (any, error) { h, _, err := c.Events(106, 0.5, DefaultTau); return h, err })
	same("top", func() (any, error) { h, _, err := c.Top(106, 0, 0); return h, err },
		func() (any, error) { h, _, err := c.Top(106, DefaultK, DefaultTau); return h, err })
}

// TestDetectorAndStoreAnswerAlike: a detector and a one-segment store
// bootstrapped from it, reopened from disk, answer every query
// bit-identically through the shared read path — which is what makes a
// sketch file and a store directory interchangeable sources.
func TestDetectorAndStoreAnswerAlike(t *testing.T) {
	det := burstDetector(t)
	p := det.Params()
	dir := t.TempDir()
	cfg := segstore.Config{K: p.K, Gamma: p.Gamma, Seed: p.Seed, D: p.D, W: p.W, SealEvents: -1, CompactFanout: -1, ScrubInterval: -1}
	st, err := segstore.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(det); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = segstore.Open(dir, cfg); err != nil {
		t.Fatal(err)
	}
	defer st.Close() //nolint:errcheck
	sn := st.Snapshot()
	if len(sn.Segments()) != 1 || sn.N() != det.N() {
		t.Fatalf("store holds %d elements in %d segments, want %d in 1", sn.N(), len(sn.Segments()), det.N())
	}

	sources := []Querier{det, sn}
	agree := func(what string, answer func(Querier) (any, *segstore.ErrorEnvelope, error)) {
		t.Helper()
		var first any
		for i, q := range sources {
			got, env, err := answer(q)
			if err != nil || env != nil {
				t.Fatalf("%s on source %d: err %v, envelope %v", what, i, err, env)
			}
			if i == 0 {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: detector %v, store %v", what, first, got)
			}
		}
	}
	var qs []PointQuery
	for tm := det.MinTime() - 50; tm <= det.MaxTime()+50; tm += 37 {
		for e := uint64(0); e < 64; e += 3 {
			qs = append(qs, PointQuery{Event: e, T: tm, Tau: 40}, PointQuery{Event: e, T: tm, Tau: DefaultTau})
		}
	}
	agree("point", func(q Querier) (any, *segstore.ErrorEnvelope, error) {
		res, err := AnswerPoint(q, qs)
		for _, r := range res {
			if r.Envelope != nil {
				return nil, r.Envelope, err
			}
		}
		return res, nil, err
	})
	hits := 0
	for _, theta := range []float64{20, 100, 300} {
		for _, e := range []uint64{0, 3, 9, 17} {
			agree(fmt.Sprintf("times e=%d θ=%v", e, theta), func(q Querier) (any, *segstore.ErrorEnvelope, error) {
				return AnswerTimes(q, e, theta, 40)
			})
		}
		for tm := det.MinTime(); tm <= det.MaxTime(); tm += 101 {
			agree(fmt.Sprintf("events t=%d θ=%v", tm, theta), func(q Querier) (any, *segstore.ErrorEnvelope, error) {
				h, env, err := AnswerEvents(q, tm, theta, 40)
				if q == sources[0] {
					hits += len(h)
				}
				return h, env, err
			})
		}
	}
	if hits == 0 {
		t.Fatal("no BURSTY-EVENT query found the planted bursts")
	}
	// Both rank equal scores by ascending id, so ties need no reordering.
	for tm := det.MinTime(); tm <= det.MaxTime(); tm += 211 {
		agree(fmt.Sprintf("top t=%d", tm), func(q Querier) (any, *segstore.ErrorEnvelope, error) {
			return AnswerTop(q, tm, 5, 40)
		})
	}
}

// TestTopRanksTiesByID: AnswerTop ranks by descending burstiness and then
// ascending id, at the k-th place too, whichever source answers — a
// detector, or a store whose two segments split the tied events and the
// leading burst between them.
func TestTopRanksTiesByID(t *testing.T) {
	det, err := histburst.New(64, histburst.WithPBE2(2), histburst.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	p := det.Params()
	st, err := segstore.Open("", segstore.Config{K: p.K, Gamma: p.Gamma, Seed: p.Seed, D: p.D, W: p.W, SealEvents: -1, CompactFanout: -1, ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() //nolint:errcheck
	// Over (90, 100], event 9 gets 30 arrivals on each side of the seal and
	// six others 50 each, three per side, so the 50s tie across every k.
	for _, half := range []struct {
		from int64
		ids  []uint64
	}{{91, []uint64{40, 12, 33}}, {96, []uint64{5, 21, 60}}} {
		var part stream.Stream
		for tm := half.from; tm < half.from+5; tm++ {
			for j := 0; j < 6; j++ {
				part = append(part, stream.Element{Event: 9, Time: tm})
			}
			for _, e := range half.ids {
				for j := 0; j < 10; j++ {
					part = append(part, stream.Element{Event: e, Time: tm})
				}
			}
		}
		for _, el := range part {
			det.Append(el.Event, el.Time)
		}
		if _, rej, err := st.AppendBatch(part); err != nil || rej > 0 {
			t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
		}
		if err := st.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
	}
	det.Finish()
	want := []EventHit{{Event: 9, Burstiness: 60}, {Event: 5, Burstiness: 50}, {Event: 12, Burstiness: 50}, {Event: 21, Burstiness: 50}}
	for name, q := range map[string]Querier{"detector": det, "store": st.Snapshot()} {
		for k := 1; k <= len(want); k++ {
			got, _, err := AnswerTop(q, 100, int64(k), 10)
			if err != nil || !reflect.DeepEqual(got, want[:k]) {
				t.Errorf("%s: AnswerTop(k=%d) = %v (%v), want %v", name, k, got, err, want[:k])
			}
		}
	}
}
