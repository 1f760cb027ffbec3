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

// TestEventSearchMatchesMergedDetector: on a dense frozen layout, the summed
// index is the merged detector's index as far as the search can tell —
// asked at instants outside inter-segment gaps, where the summed and merged
// curves agree to the bit, EVENTS and TOP return the same answers after
// visiting the same nodes and issuing the same point queries, over
// collision-free levels and over Count-Min levels below them. (Over a sparse
// layout a merged cell's line runs on across the cell's silence between
// segments, where the summed cells hold their count, so the two part there;
// FuzzStoreSchedule holds the summed index to the exact oracle instead.)
func TestEventSearchMatchesMergedDetector(t *testing.T) {
	for _, dims := range [][2]int{{3, 32}, {3, 8}} {
		t.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(t *testing.T) {
			cfg := testConfig(4000)
			cfg.D, cfg.W = dims[0], dims[1]
			cfg.CompactFanout = -1
			s := checkpointed(t, denseStream(400, 64, 71), cfg, true)
			defer mustClose(t, s)
			if n := len(s.Segments()); n < 4 {
				t.Fatalf("want a multi-segment layout, got %d segments", n)
			}
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

// mergedLayout is a frozen store's snapshot beside a detector merged from
// its segments.
type mergedLayout struct {
	sn     *Snapshot
	merged *histburst.Detector
}

func newMergedLayout(t *testing.T, s *Store) mergedLayout {
	t.Helper()
	sn := s.Snapshot()
	if sn.Head().Elements > 0 {
		t.Fatalf("head holds %d elements after a full checkpoint", sn.Head().Elements)
	}
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
		th, err := pbe.NewEventsTheta(theta)
		if err != nil {
			t.Fatal(err)
		}
		ids := x.BurstyEventIDs(tm, th, pbe.MustSpan(tau), &got)
		wantIDs := mx.BurstyEventIDs(tm, th, pbe.MustSpan(tau), &want)
		if !slices.Equal(ids, wantIDs) || got != want {
			t.Fatalf("t=%d τ=%d θ=%v: store %v %+v, merged detector %v %+v", tm, tau, theta, ids, got, wantIDs, want)
		}
		found += len(ids)
	}
	for _, k := range ks {
		var got, want dyadic.QueryStats
		top := x.TopBursty(tm, k, pbe.MustSpan(tau), &got)
		wantTop := mx.TopBursty(tm, k, pbe.MustSpan(tau), &want)
		if !sameRanking(top, wantTop) || got != want {
			t.Fatalf("t=%d τ=%d k=%d: store %v %+v, merged detector %v %+v", tm, tau, k, top, got, wantTop, want)
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
