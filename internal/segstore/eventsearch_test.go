package segstore

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"histburst"
	"histburst/internal/dyadic"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// straddleStream is a burst that straddles a seal: at τ = 10 and t = 100,
// event 9 has 30 arrivals on each side of the boundary between 95 and 96,
// and events 1–3 before it and 4–6 after it have 50 each, so no segment
// alone ranks event 9 in its top three. The six 50s tie across k = 3.
func straddleStream() (first, second stream.Stream) {
	for tm := int64(91); tm <= 100; tm++ {
		part, ids := &first, []uint64{1, 2, 3}
		if tm > 95 {
			part, ids = &second, []uint64{4, 5, 6}
		}
		for j := 0; j < 6; j++ {
			*part = append(*part, stream.Element{Event: 9, Time: tm})
		}
		for _, e := range ids {
			for j := 0; j < 10; j++ {
				*part = append(*part, stream.Element{Event: e, Time: tm})
			}
		}
	}
	return first, second
}

// TestTopBurstyStraddlingSeal: the store ranks a burst split by a seal by
// its whole burstiness, as the point query and a detector fed the same
// stream do, and equal scores rank by ascending id at the k-th place — the
// one order the detector and the store share.
func TestTopBurstyStraddlingSeal(t *testing.T) {
	first, second := straddleStream()
	cfg := testConfig(-1)
	cfg.CompactFanout = -1
	s := mustOpen(t, "", cfg)
	defer mustClose(t, s)
	det, err := histburst.NewFromParams(s.Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []stream.Stream{first, second} {
		if _, rej, err := s.AppendBatch(part); err != nil || rej > 0 {
			t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
		}
		if err := s.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
		for _, el := range part {
			det.Append(el.Event, el.Time)
		}
	}
	det.Finish()
	if n := len(s.Segments()); n != 2 {
		t.Fatalf("fixture sealed %d segments, want 2", n)
	}
	if b, err := s.Snapshot().Burstiness(9, 100, 10); err != nil || b != 60 {
		t.Fatalf("POINT b_9 = %v (%v), want 60", b, err)
	}
	want := []histburst.EventBurstiness{{Event: 9, Burstiness: 60}, {Event: 1, Burstiness: 50}, {Event: 2, Burstiness: 50}}
	for name, top := range map[string]func(t, k, tau int64) ([]histburst.EventBurstiness, error){
		"store": func(tm, k, tau int64) ([]histburst.EventBurstiness, error) {
			return s.Snapshot().TopBursty(tm, int(k), tau)
		},
		"detector": func(tm, k, tau int64) ([]histburst.EventBurstiness, error) { return det.TopBursty(tm, int(k), tau) },
	} {
		got, err := top(100, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s TopBursty(100, 3, 10) = %v, want %v", name, got, want)
		}
		if _, err := top(100, 0, 10); err == nil {
			t.Errorf("%s TopBursty with k = 0 accepted", name)
		}
	}
	if got, err := s.Snapshot().BurstyEvents(100, 55, 10); err != nil || !slices.Equal(got, []uint64{9}) {
		t.Errorf("BurstyEvents(100, 55, 10) = %v (%v), want [9]", got, err)
	}
}

// TestEventSearchMatchesMergedDetector: on a frozen layout, the summed index
// is the merged detector's index as far as the search can tell — asked at
// instants outside inter-segment gaps, where the summed and merged curves
// agree to the bit, EVENTS and TOP return the same answers after visiting
// the same nodes and issuing the same point queries, over collision-free
// levels and over Count-Min levels below them.
func TestEventSearchMatchesMergedDetector(t *testing.T) {
	for _, dims := range [][2]int{{3, 32}, {3, 8}} {
		t.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(t *testing.T) {
			cfg := testConfig(4000)
			cfg.D, cfg.W = dims[0], dims[1]
			cfg.CompactFanout = -1
			s := frozenStore(t, denseStream(400, 64, 71), cfg)
			defer mustClose(t, s)
			m := newMergedLayout(t, s)
			asked, found := 0, 0
			for tm := int64(60); tm <= 460; tm += 7 {
				for _, tau := range []int64{10, 30} {
					if m.inGap(tm) || m.inGap(tm-tau) || m.inGap(tm-2*tau) {
						continue
					}
					asked++
					found += m.check(t, tm, tau, []float64{8, 20}, []int{1, 3, 6})
				}
			}
			if asked < 40 || found == 0 {
				t.Fatalf("%d queries outside the gaps found %d bursty events; the comparison is vacuous", asked, found)
			}
		})
	}
}

// denseStream is genStream's bursts over a floor of three to six arrivals
// of every event at every instant: each cell then gains at least three
// arrivals an instant in every segment, so no summed or merged curve dips
// below zero (γ = 2) and sealed segments leave no gaps between them.
func denseStream(horizon int64, span uint64, seed int64) stream.Stream {
	elems := genStream(0, span, horizon, seed)
	for tm := int64(0); tm < horizon; tm++ {
		for e := uint64(0); e < span; e++ {
			for range 3 + e%4 {
				elems = append(elems, stream.Element{Event: e, Time: tm})
			}
		}
	}
	elems.Sort()
	return elems
}

// frozenStore seals elems into a volatile store and leaves no head.
func frozenStore(t *testing.T, elems stream.Stream, cfg Config) *Store {
	t.Helper()
	s := mustOpen(t, "", cfg)
	if _, rej, err := s.AppendBatch(elems); err != nil || rej > 0 {
		t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
	}
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if n, _, _, _ := s.view.Load().head.snapshot(); n != 0 {
		t.Fatalf("head holds %d elements after a full checkpoint", n)
	}
	if len(s.Segments()) < 4 {
		t.Fatalf("want a multi-segment layout, got %d segments", len(s.Segments()))
	}
	return s
}

// mergedLayout is a frozen store's snapshot beside a detector merged from
// its segments.
type mergedLayout struct {
	sn     *Snapshot
	merged *histburst.Detector
}

func newMergedLayout(t *testing.T, s *Store) mergedLayout {
	t.Helper()
	sn := s.Snapshot()
	dets := make([]*histburst.Detector, len(sn.v.segs))
	for i, g := range sn.v.segs {
		dets[i] = g.detector()
	}
	merged, err := histburst.MergeDetectors(dets)
	if err != nil {
		t.Fatal(err)
	}
	return mergedLayout{sn: sn, merged: merged}
}

// inGap reports whether instant q falls from one segment's MaxT up to the
// next one's MinT: there a sealed segment's cells answer the exact count
// their last arrival left, and the merged cells their line's value.
func (m mergedLayout) inGap(q int64) bool {
	segs := m.sn.v.segs
	for i := 1; i < len(segs); i++ {
		if segs[i-1].meta.MaxT <= q && q < segs[i].meta.MinT {
			return true
		}
	}
	return false
}

// check asks the store and the merged detector the same bursty-event
// queries at tm over tau, and returns how many events the BURSTY-EVENT
// queries found.
func (m mergedLayout) check(t *testing.T, tm, tau int64, thetas []float64, ks []int) int {
	t.Helper()
	sn := m.sn
	x := dyadic.IndexOf(sn.shape, sn.summedLevels(tm, pbe.MustSpan(tau)))
	mx := m.merged.EventIndex()
	found := 0
	for _, theta := range thetas {
		var got, want dyadic.QueryStats
		ids, err := x.BurstyEventIDs(tm, theta, pbe.MustSpan(tau), &got)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs, err := mx.BurstyEventIDs(tm, theta, pbe.MustSpan(tau), &want)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids, wantIDs) || got != want {
			t.Fatalf("t=%d τ=%d θ=%v: store %v %+v, merged detector %v %+v", tm, tau, theta, ids, got, wantIDs, want)
		}
		if pub, err := sn.BurstyEvents(tm, theta, tau); err != nil || !slices.Equal(pub, ids) {
			t.Fatalf("t=%d τ=%d θ=%v: Snapshot.BurstyEvents %v (%v), the walk %v", tm, tau, theta, pub, err, ids)
		}
		found += len(ids)
	}
	for _, k := range ks {
		var got, want dyadic.QueryStats
		top, err := x.TopBursty(tm, k, pbe.MustSpan(tau), &got)
		if err != nil {
			t.Fatal(err)
		}
		wantTop, err := mx.TopBursty(tm, k, pbe.MustSpan(tau), &want)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRanking(top, wantTop) || got != want {
			t.Fatalf("t=%d τ=%d k=%d: store %v %+v, merged detector %v %+v", tm, tau, k, top, got, wantTop, want)
		}
		pub, err := sn.TopBursty(tm, k, tau)
		if err != nil {
			t.Fatal(err)
		}
		for i, eb := range pub {
			if eb != histburst.EventBurstiness(top[i]) {
				t.Fatalf("t=%d τ=%d k=%d: Snapshot.TopBursty %v, the walk %v", tm, tau, k, pub, top)
			}
		}
	}
	return found
}

// sameRanking reports whether two rankings agree but for rounding: a merged
// cell adds the earlier segments' counts inside each line where the summed
// rows add them after, so the same burstiness may differ in its last bits.
// Scores must agree within 1e-9, and ids everywhere but among the scores
// that tie, so rounded, with the last one ranked.
func sameRanking(got, want []dyadic.EventScore) bool {
	if len(got) != len(want) {
		return false
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*max(1, math.Abs(b)) }
	for i := range want {
		if !near(got[i].Burstiness, want[i].Burstiness) {
			return false
		}
		if got[i].Event != want[i].Event && !near(want[i].Burstiness, want[len(want)-1].Burstiness) {
			return false
		}
	}
	return true
}

// TestEventSearchWithLiveHead: a store whose live head holds several events'
// arrivals inside the window, one of them the second half of a burst whose
// first half is sealed. Each summed node above the leaves scores what the
// same sealed segments alone score plus the exact burstiness of the head's
// arrivals under it, and the walk ranks by the point query: TOP descends,
// ties by ascending id, every score is POINT's to the bit, and the straddling
// burst leads.
func TestEventSearchWithLiveHead(t *testing.T) {
	sealedPart := genStream(400, 32, 1200, 83)
	var headPart stream.Stream
	for tm := int64(1190); tm < 1210; tm++ {
		part := &sealedPart
		if tm >= 1200 {
			part = &headPart
			for _, e := range []uint64{5, 6, 40} {
				headPart = append(headPart, stream.Element{Event: e, Time: tm})
			}
		}
		for range 3 {
			*part = append(*part, stream.Element{Event: 20, Time: tm})
		}
	}
	sealedPart.Sort()
	cfg := testConfig(64)
	cfg.CompactFanout = -1
	sealed := frozenStore(t, sealedPart, cfg)
	defer mustClose(t, sealed)
	s := frozenStore(t, sealedPart, cfg)
	defer mustClose(t, s)
	if _, rej, err := s.AppendBatch(headPart); err != nil || rej > 0 {
		t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
	}
	if !slices.Equal(s.Segments(), sealed.Segments()) {
		t.Fatal("fixture: the head's arrivals sealed a segment")
	}

	const tm, tau = 1209, 20
	sn := s.Snapshot()
	x, sx := sn.summedLevels(tm, pbe.MustSpan(tau)), sealed.Snapshot().summedLevels(tm, pbe.MustSpan(tau))
	exact := indexStream(headPart)
	for i, h := range sn.shape.Heights() {
		if h == 0 {
			continue
		}
		for agg := uint64(0); agg < sn.kfold>>h; agg++ {
			share := 0.0
			for e := agg << h; e < (agg+1)<<h; e++ {
				share += exact.burstiness(e, tm, tau)
			}
			got := x[i].Burstiness(agg, tm, pbe.MustSpan(tau))
			if want := sx[i].Burstiness(agg, tm, pbe.MustSpan(tau)) + share; got != want {
				t.Fatalf("height %d node %d: summed %v, sealed segments plus the head's exact %v = %v", h, agg, got, share, want)
			}
		}
	}

	top, err := s.Snapshot().TopBursty(tm, 6, tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 || top[0].Event != 20 {
		t.Fatalf("TopBursty(%d, 6, %d) = %v, want six events led by 20", tm, tau, top)
	}
	for i, eb := range top {
		if i > 0 && !(eb.Burstiness < top[i-1].Burstiness || eb.Burstiness == top[i-1].Burstiness && eb.Event > top[i-1].Event) {
			t.Fatalf("TopBursty not by descending score then ascending id: %v", top)
		}
		if b, err := s.Snapshot().Burstiness(eb.Event, tm, tau); err != nil || b != eb.Burstiness {
			t.Fatalf("TopBursty scores event %d %v, POINT %v (%v)", eb.Event, eb.Burstiness, b, err)
		}
	}
	ids, err := s.Snapshot().BurstyEvents(tm, top[2].Burstiness, tau)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ids {
		if b, err := s.Snapshot().Burstiness(e, tm, tau); err != nil || b < top[2].Burstiness {
			t.Fatalf("BurstyEvents(θ=%v) reports event %d at POINT %v (%v)", top[2].Burstiness, e, b, err)
		}
	}
	if !slices.Contains(ids, 20) {
		t.Fatalf("BurstyEvents(θ=%v) = %v misses the straddling burst", top[2].Burstiness, ids)
	}
}

// TestLargeTauSaturates: τ comes straight off the wire, and where 2τ
// overflows, a wrapped t−2τ lands past t, where the head must not count
// arrivals as history before the window. Whatever τ, the head-only store
// answers the exact burstiness, and the sealed store and a detector fed the
// same stream answer alike, within the sketch's 4γ of it.
func TestLargeTauSaturates(t *testing.T) {
	const origin = int64(1_700_000_000)
	var elems stream.Stream
	for i := int64(0); i < 100; i++ {
		elems = append(elems, stream.Element{Event: 3, Time: origin + i})
	}
	tm, exact := origin+50, 51.0 // every τ here reaches back past the stream
	cfg := testConfig(-1)
	cfg.CompactFanout = -1
	head := mustOpen(t, "", cfg)
	defer mustClose(t, head)
	sealed := mustOpen(t, "", cfg)
	defer mustClose(t, sealed)
	det, err := histburst.NewFromParams(head.Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{head, sealed} {
		if _, rej, err := s.AppendBatch(elems); err != nil || rej > 0 {
			t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
		}
	}
	if err := sealed.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	for _, el := range elems {
		det.Append(el.Event, el.Time)
	}
	det.Finish()

	type answerer interface {
		Burstiness(e uint64, t, tau int64) (float64, error)
		BurstyEvents(t int64, theta float64, tau int64) ([]uint64, error)
		TopBursty(t int64, k int, tau int64) ([]histburst.EventBurstiness, error)
	}
	sources := []struct {
		name string
		q    answerer
	}{{"head", head.Snapshot()}, {"sealed", sealed.Snapshot()}, {"detector", det}}
	for _, tau := range []int64{1 << 40, 1 << 62, 3 << 61, math.MaxInt64} {
		var bs [3]float64
		for i, src := range sources {
			b, err := src.q.Burstiness(3, tm, tau)
			if err != nil {
				t.Fatal(err)
			}
			bs[i] = b
			if ids, err := src.q.BurstyEvents(tm, 40, tau); err != nil || !slices.Equal(ids, []uint64{3}) {
				t.Errorf("τ=%d: %s BurstyEvents(θ=40) = %v (%v), want [3]", tau, src.name, ids, err)
			}
			if top, err := src.q.TopBursty(tm, 1, tau); err != nil || len(top) != 1 || top[0] != (histburst.EventBurstiness{Event: 3, Burstiness: b}) {
				t.Errorf("τ=%d: %s TopBursty(k=1) = %v (%v), want event 3 at %v", tau, src.name, top, err, b)
			}
		}
		if bs[0] != exact || bs[1] != bs[2] || math.Abs(bs[1]-exact) > 4*cfg.Gamma {
			t.Errorf("τ=%d: b_3 head %v, sealed %v, detector %v; want the head exact (%v) and the sketches alike within 4γ", tau, bs[0], bs[1], bs[2], exact)
		}
	}
}
