package segstore

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"histburst/internal/cmpbe"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// burstinessNaive is the retained naive twin of the point query: fresh
// leaf-level EventCells slices per segment, every segment visited, heads
// materialized, and a sort-based median over every row.
func (sn *Snapshot) burstinessNaive(e uint64, t int64, sp pbe.Span) float64 {
	var rows []float64
	for _, g := range sn.v.segs {
		det := g.detector()
		if det == nil {
			continue
		}
		cells := det.EventIndex().Level(0).(*cmpbe.Sketch).EventCells(e)
		if rows == nil {
			rows = make([]float64, len(cells))
		}
		for i, c := range cells {
			rows[i] += pbe.Burstiness(c, t, sp)
		}
	}
	d := len(rows)
	vals, b := rows, 0.0
	sort.Float64s(vals)
	switch {
	case d%2 == 1:
		b = vals[d/2]
	case d > 0:
		b = (vals[d/2-1] + vals[d/2]) / 2
	}
	for _, h := range sn.heads() {
		b += h.burstiness(e, t, sp)
	}
	return b
}

// TestBurstinessFastpathMatchesNaive pins the pooled-scratch burstiness fast
// path bit-identical to burstinessNaive over a store with sealed segments, a
// live head, and queries on both sides of every segment boundary. The fast
// path skips segments wholly after t and reuses a row-sum scratch; skipped
// segments contribute exactly 0.0 to every term, so the sums must match to
// the last bit.
func TestBurstinessFastpathMatchesNaive(t *testing.T) {
	elems := genStream(4000, 64, 2000, 11)
	cfg := testConfig(512)
	_, s := buildPair(t, elems, cfg, false) // live head stays behind the sealed segments
	defer mustClose(t, s)
	sn := s.Snapshot()
	if len(sn.Segments()) < 2 {
		t.Fatalf("fixture sealed %d segments, want >= 2", len(sn.Segments()))
	}
	for e := uint64(0); e < 8; e++ {
		for _, tau := range []int64{16, 64} {
			for q := int64(-5); q <= sn.MaxTime()+10; q += 37 {
				fast := sn.burstiness(e, q, pbe.MustSpan(tau))
				naive := sn.burstinessNaive(e, q, pbe.MustSpan(tau))
				if fast != naive {
					t.Fatalf("burstiness(e=%d, t=%d, tau=%d): fast %v != naive %v", e, q, tau, fast, naive)
				}
			}
		}
	}
}

// append is the retained per-element twin of memHead.appendBatch: one lock
// round trip per element. needFreeze is true when the head declined the
// element because it must be frozen first — the head is already frozen, or
// it is full and t advances past maxT. A timestamp below the frontier is
// rejected with an error wrapping stream.ErrOutOfOrder.
func (h *memHead) append(e uint64, t int64, sealEvents int64) (needFreeze bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.frozen {
		return true, nil
	}
	if t < h.floor || (h.started && t < h.maxT) {
		frontier := h.floor
		if h.started {
			frontier = h.maxT
		}
		return false, fmt.Errorf("%w: append at %d behind frontier %d", stream.ErrOutOfOrder, t, frontier)
	}
	if h.started && t > h.maxT && sealEvents > 0 && h.n >= sealEvents {
		return true, nil
	}
	if !h.started {
		h.minT = t
		h.started = true
	}
	h.maxT = t
	h.n++
	h.appendTS(h.seqFor(e), t)
	return false, nil
}

// TestMemHeadAppendBatchMatchesAppend drives the same element sequence —
// including out-of-order stragglers and unfolded event ids — through
// memHead.appendBatch and through per-element memHead.append, and requires
// identical head state: counters, bounds, and every event's timestamp
// sequence.
func TestMemHeadAppendBatchMatchesAppend(t *testing.T) {
	const kfold = 64
	elems := genStream(3000, 3*kfold, 1500, 17)
	for i := 40; i < len(elems); i += 40 { // stragglers behind the frontier
		elems[i].Time = elems[i-1].Time - 3
	}
	const lim = 0 // no freeze threshold: the whole stream lands in one head

	hb := newMemHead(0)
	consumed, accepted, rejected, needFreeze := hb.appendBatch(elems, kfold, lim)
	if needFreeze || consumed != len(elems) {
		t.Fatalf("appendBatch: consumed=%d needFreeze=%v", consumed, needFreeze)
	}

	ha := newMemHead(0)
	var wantAccepted, wantRejected int64
	for _, el := range elems {
		nf, err := ha.append(el.Event%kfold, el.Time, lim)
		if nf {
			t.Fatal("per-element append asked for a freeze with limits off")
		}
		if err != nil {
			if !errors.Is(err, stream.ErrOutOfOrder) {
				t.Fatalf("append: %v", err)
			}
			wantRejected++
			continue
		}
		wantAccepted++
	}

	if accepted != wantAccepted || rejected != wantRejected {
		t.Fatalf("batch counted %d/%d accepted/rejected, per-element %d/%d",
			accepted, rejected, wantAccepted, wantRejected)
	}
	an, aMin, aMax, _ := ha.snapshot()
	bn, bMin, bMax, _ := hb.snapshot()
	if an != bn || aMin != bMin || aMax != bMax {
		t.Fatalf("head counters differ: (%d,%d,%d) vs (%d,%d,%d)", an, aMin, aMax, bn, bMin, bMax)
	}
	for e := uint64(0); e < kfold; e++ {
		sa := ha.byEvent[e].materialize(ha.arenas)
		sb := hb.byEvent[e].materialize(hb.arenas)
		if len(sa) != len(sb) {
			t.Fatalf("event %d: %d timestamps per-element, %d batch", e, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("event %d timestamp %d: %d != %d", e, i, sa[i], sb[i])
			}
		}
	}
}
