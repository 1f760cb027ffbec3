package segstore

import (
	"sync"
	"testing"
)

// crashClone copies s's directory as a crash would leave it once every
// frozen head is sealed — here, on the test's goroutine: the live head
// exists only in the log. Holding ingestMu keeps appends and log rotation
// out of the copy.
func crashClone(t *testing.T, s *Store) string {
	t.Helper()
	if err := s.sealFrozen(); err != nil {
		t.Fatal(err)
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return cloneDir(t, s.dir)
}

// TestStoreKindsAdmitAlike: a volatile store, a directory store without a
// log and one with a log run one write path, so one disordered sequence fed
// in uneven chunks leaves them alike — the same elements admitted and
// rejected, the same segments, the same answers. The logged store is
// crashed with its head unsealed and recovered, so its copy of the sequence
// also passes through replay. Timestamps start at an epoch-scale origin.
func TestStoreKindsAdmitAlike(t *testing.T) {
	const origin, chunk = int64(1_700_000_000), 97
	base := genStream(900, 32, 1500, 71)
	for i := range base {
		base[i].Time += origin
	}
	elems := withDisorder(base)
	cfg := testConfig(64)
	cfg.CompactFanout = -1
	noWAL := cfg
	noWAL.DisableWAL = true
	feed := func(s *Store) {
		for lo := 0; lo < len(elems); lo += chunk { // uneven chunks straddle seal boundaries
			if _, _, err := s.AppendBatch(elems[lo:min(lo+chunk, len(elems))]); err != nil {
				t.Fatal(err)
			}
		}
	}

	volatile := mustOpen(t, "", cfg)
	defer mustClose(t, volatile)
	bare := mustOpen(t, t.TempDir(), noWAL)
	defer mustClose(t, bare)
	logged := mustOpen(t, t.TempDir(), cfg)
	for _, s := range []*Store{volatile, bare, logged} {
		feed(s)
	}
	if volatile.Rejected() == 0 {
		t.Fatal("the disordered sequence rejected nothing")
	}
	if bare.Rejected() != volatile.Rejected() || logged.Rejected() != volatile.Rejected() {
		t.Fatalf("rejected: volatile %d, no log %d, log %d", volatile.Rejected(), bare.Rejected(), logged.Rejected())
	}
	crashed := crashClone(t, logged)
	mustClose(t, logged)
	replayed := mustOpen(t, crashed, cfg)
	defer mustClose(t, replayed)
	if n, _, _, _ := replayed.view.Load().head.snapshot(); n == 0 {
		t.Fatal("recovery replayed nothing into the head")
	}

	want := volatile
	for _, c := range []struct {
		name string
		s    *Store
	}{{"no log", bare}, {"replayed", replayed}} {
		name, s := c.name, c.s
		for _, st := range []*Store{want, s} {
			if err := st.Checkpoint(true); err != nil {
				t.Fatal(err)
			}
		}
		if s.N() != want.N() {
			t.Fatalf("%s: N = %d, volatile %d", name, s.N(), want.N())
		}
		wSegs, gSegs := want.Segments(), s.Segments()
		if len(wSegs) != len(gSegs) {
			t.Fatalf("%s: %d segments, volatile %d", name, len(gSegs), len(wSegs))
		}
		for i := range wSegs {
			if gSegs[i].Start != wSegs[i].Start || gSegs[i].End != wSegs[i].End || gSegs[i].Elements != wSegs[i].Elements {
				t.Fatalf("%s: segment %d is %+v, volatile %+v", name, i, gSegs[i], wSegs[i])
			}
		}
		for e := uint64(0); e < 32; e++ {
			for q := origin - 5; q <= want.MaxTime()+5; q += 41 {
				if a, b := want.Snapshot().CumulativeFrequency(e, q), s.Snapshot().CumulativeFrequency(e, q); a != b {
					t.Fatalf("%s: F(%d,%d) = %v, volatile %v", name, e, q, b, a)
				}
				a, err1 := want.Snapshot().Burstiness(e, q, 30)
				b, err2 := s.Snapshot().Burstiness(e, q, 30)
				if err1 != nil || err2 != nil || a != b {
					t.Fatalf("%s: b(%d,%d) = %v (%v), volatile %v (%v)", name, e, q, b, err2, a, err1)
				}
			}
		}
	}

	// Eight writers on a log-less directory store: admission and apply are
	// one step under ingestMu, so every element lands in N or in Rejected and
	// no head refuses what admission let through.
	conc := mustOpen(t, t.TempDir(), noWAL)
	defer mustClose(t, conc)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * chunk; lo < len(elems); lo += 8 * chunk {
				if _, _, err := conc.AppendBatch(elems[lo:min(lo+chunk, len(elems))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := conc.N() + conc.Rejected(); got != int64(len(elems)) {
		t.Fatalf("8 writers: N %d + rejected %d = %d, want %d", conc.N(), conc.Rejected(), got, len(elems))
	}
}
