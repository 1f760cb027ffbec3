package segstore

import (
	"errors"
	"testing"

	"histburst/internal/stream"
)

// The ingest/compaction fast paths from the throughput overhaul: batching
// must not change what the store holds — AppendBatch in uneven chunks
// leaves the store query-identical to per-element Append, its one-element
// case — and the streaming mergeRun must produce the same segment as the
// Clone+MergeAppend chain.

// mergeRunNaive is the retained naive twin: clone every input — MergeAppend
// mutates both operands — and chain MergeAppend in time order.
func (s *Store) mergeRunNaive(run []*Segment) (*Segment, error) {
	dets, err := runDetectors(run)
	if err != nil {
		return nil, err
	}
	out, err := dets[0].Clone()
	if err != nil {
		return nil, err
	}
	for _, det := range dets[1:] {
		next, err := det.Clone()
		if err != nil {
			return nil, err
		}
		if err := out.MergeAppend(next); err != nil {
			return nil, err
		}
	}
	return residentSegment(runMeta(run), out), nil
}

// withDisorder injects out-of-order elements (timestamps behind the running
// maximum) at a deterministic cadence so both ingest paths must reject the
// same set.
func withDisorder(elems stream.Stream) stream.Stream {
	out := make(stream.Stream, 0, len(elems)+len(elems)/40)
	maxT := int64(0)
	for i, el := range elems {
		out = append(out, el)
		if el.Time > maxT {
			maxT = el.Time
		}
		if i%40 == 17 && maxT > 3 {
			out = append(out, stream.Element{Event: el.Event, Time: maxT - 3})
		}
	}
	return out
}

func TestAppendBatchMatchesAppend(t *testing.T) {
	elems := withDisorder(genStream(900, 32, 1500, 71))
	cfg := testConfig(64)
	cfg.CompactFanout = -1

	seq := mustOpen(t, "", cfg)
	defer mustClose(t, seq)
	seqRejected := int64(0)
	for _, el := range elems {
		if err := seq.Append(el.Event, el.Time); err != nil {
			if !errors.Is(err, stream.ErrOutOfOrder) {
				t.Fatal(err)
			}
			seqRejected++
		}
	}
	if err := seq.Checkpoint(true); err != nil {
		t.Fatal(err)
	}

	bat := mustOpen(t, "", cfg)
	defer mustClose(t, bat)
	var appended, rejected int64
	for lo := 0; lo < len(elems); lo += 97 { // uneven chunks straddle seal boundaries
		hi := lo + 97
		if hi > len(elems) {
			hi = len(elems)
		}
		a, r, err := bat.AppendBatch(elems[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		appended += a
		rejected += r
	}
	if err := bat.Checkpoint(true); err != nil {
		t.Fatal(err)
	}

	if rejected != seqRejected || bat.Rejected() != seq.Rejected() {
		t.Fatalf("rejection counts: batch %d (store %d), sequential %d (store %d)",
			rejected, bat.Rejected(), seqRejected, seq.Rejected())
	}
	if appended+rejected != int64(len(elems)) {
		t.Fatalf("batch consumed %d elements of %d", appended+rejected, len(elems))
	}
	sSegs, bSegs := seq.Segments(), bat.Segments()
	if len(sSegs) != len(bSegs) {
		t.Fatalf("segment counts differ: sequential %d, batch %d", len(sSegs), len(bSegs))
	}
	for i := range sSegs {
		if sSegs[i].Start != bSegs[i].Start || sSegs[i].End != bSegs[i].End ||
			sSegs[i].Elements != bSegs[i].Elements {
			t.Fatalf("segment %d differs: sequential %+v, batch %+v", i, sSegs[i], bSegs[i])
		}
	}
	for e := uint64(0); e < 32; e++ {
		for q := int64(-5); q <= seq.MaxTime()+5; q += 41 {
			if a, b := seq.Snapshot().CumulativeFrequency(e, q), bat.Snapshot().CumulativeFrequency(e, q); a != b {
				t.Fatalf("F(%d,%d): sequential %v, batch %v", e, q, a, b)
			}
			a, err := seq.Snapshot().Burstiness(e, q, 30)
			if err != nil {
				t.Fatal(err)
			}
			b, err := bat.Snapshot().Burstiness(e, q, 30)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("b(%d,%d): sequential %v, batch %v", e, q, a, b)
			}
		}
	}
}

// TestMergeRunMatchesNaive pins the streaming segment merge bit-identical to
// the retained Clone+MergeAppend twin.
func TestMergeRunMatchesNaive(t *testing.T) {
	elems := genStream(800, 32, 1500, 83)
	cfg := testConfig(64)
	cfg.CompactFanout = -1 // keep the sealed run intact for us to merge
	_, s := buildPair(t, elems, cfg, true)
	defer mustClose(t, s)

	run := s.view.Load().segs
	if len(run) < 4 {
		t.Fatalf("want ≥4 segments to merge, got %d", len(run))
	}
	fast, err := s.mergeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := s.mergeRunNaive(run)
	if err != nil {
		t.Fatal(err)
	}
	if fast.meta != naive.meta {
		t.Fatalf("meta differs: %+v vs %+v", fast.meta, naive.meta)
	}
	if fast.detector().N() != naive.detector().N() || fast.detector().MaxTime() != naive.detector().MaxTime() {
		t.Fatalf("counters: N %d/%d", fast.detector().N(), naive.detector().N())
	}
	for e := uint64(0); e < 32; e++ {
		for q := int64(0); q <= fast.detector().MaxTime()+5; q += 37 {
			if a, b := fast.detector().CumulativeFrequency(e, q), naive.detector().CumulativeFrequency(e, q); a != b {
				t.Fatalf("F(%d,%d): streaming %v, naive %v", e, q, a, b)
			}
			a, err := fast.detector().Burstiness(e, q, 25)
			if err != nil {
				t.Fatal(err)
			}
			b, err := naive.detector().Burstiness(e, q, 25)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("b(%d,%d): streaming %v, naive %v", e, q, a, b)
			}
		}
	}
	// The run sources must be untouched — they serve queries during the merge.
	for i, g := range run {
		if g.meta != s.view.Load().segs[i].meta {
			t.Fatalf("segment %d mutated by merge", i)
		}
	}
}
