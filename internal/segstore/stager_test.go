package segstore

import (
	"math/rand"
	"sync"
	"testing"

	"histburst/internal/stream"
)

// The sharded-ingest sequencing protocol, pinned: whatever interleaving the
// writers and group commits land on, the store must be bit-identical
// (query-wise) to a single-writer sequential append of the merged stream
// the stager committed, and the per-writer rejection attribution must add
// up to exactly the store's own counts.

// TestStagerSingleWriterMatchesSequential is the fully deterministic case:
// one writer, known disorder, so the per-batch counts have exact expected
// values.
func TestStagerSingleWriterMatchesSequential(t *testing.T) {
	cfg := testConfig(64)
	cfg.CompactFanout = -1
	st := mustOpen(t, "", cfg)
	defer mustClose(t, st)
	stager := NewStager(st)

	// Batch 1: clean. Batch 2: two elements behind batch 1's frontier.
	// Batch 3: unsorted input — the stager admits it in timestamp order, so
	// nothing is rejected.
	r1 := stager.Append(stream.Stream{{Event: 1, Time: 10}, {Event: 2, Time: 20}, {Event: 3, Time: 30}})
	if r1.Err != nil || r1.Appended != 3 || r1.Rejected != 0 {
		t.Fatalf("batch 1: %+v", r1)
	}
	r2 := stager.Append(stream.Stream{{Event: 4, Time: 5}, {Event: 5, Time: 29}, {Event: 6, Time: 30}, {Event: 7, Time: 40}})
	if r2.Err != nil || r2.Appended != 2 || r2.Rejected != 2 {
		t.Fatalf("batch 2: %+v", r2)
	}
	r3 := stager.Append(stream.Stream{{Event: 8, Time: 60}, {Event: 9, Time: 50}})
	if r3.Err != nil || r3.Appended != 2 || r3.Rejected != 0 {
		t.Fatalf("batch 3: %+v", r3)
	}
	if st.N() != 7 || st.Rejected() != 2 {
		t.Fatalf("store: n=%d rejected=%d, want 7/2", st.N(), st.Rejected())
	}
	if st.MaxTime() != 60 {
		t.Fatalf("frontier = %d, want 60", st.MaxTime())
	}
}

// TestStagerCommitHookSeesAdmittedElements pins the onCommit contract: the
// hook observes every successful group commit after the store accepted it,
// with the rejected prefix trimmed — exactly the elements that became part
// of the history, in timestamp order — and is never invoked for a commit
// that admitted nothing.
func TestStagerCommitHookSeesAdmittedElements(t *testing.T) {
	cfg := testConfig(64)
	cfg.CompactFanout = -1
	st := mustOpen(t, "", cfg)
	defer mustClose(t, st)
	stager := NewStager(st)

	var commits []stream.Stream
	stager.SetCommitHook(func(committed stream.Stream, frontier int64) {
		cp := make(stream.Stream, len(committed))
		copy(cp, committed)
		commits = append(commits, cp)
	})

	// Clean batch: the hook sees all of it, time-sorted even though the
	// input was not.
	stager.Append(stream.Stream{{Event: 2, Time: 20}, {Event: 1, Time: 10}})
	// Straggler prefix: only the admitted suffix reaches the hook.
	stager.Append(stream.Stream{{Event: 3, Time: 5}, {Event: 4, Time: 30}})
	// Fully rejected batch: the hook must not fire at all.
	stager.Append(stream.Stream{{Event: 5, Time: 1}, {Event: 6, Time: 2}})

	if len(commits) != 2 {
		t.Fatalf("hook fired %d times, want 2 (all-rejected commit must not fire)", len(commits))
	}
	want0 := stream.Stream{{Event: 1, Time: 10}, {Event: 2, Time: 20}}
	for i, el := range want0 {
		if commits[0][i] != el {
			t.Fatalf("commit 0 = %v, want %v", commits[0], want0)
		}
	}
	if len(commits[1]) != 1 || commits[1][0] != (stream.Element{Event: 4, Time: 30}) {
		t.Fatalf("commit 1 = %v, want only the admitted element {4 30}", commits[1])
	}
	if st.N() != 3 || st.Rejected() != 3 {
		t.Fatalf("store: n=%d rejected=%d, want 3/3", st.N(), st.Rejected())
	}
}

// TestStagerInterleavedWritersMatchSequentialReplay runs concurrent writers
// through the stager, records every group commit via the commit-log hook,
// and replays the committed sequence through a second store with
// per-element Append — the naive single-writer path. Both stores must agree
// on every count, every segment boundary, and every query.
func TestStagerInterleavedWritersMatchSequentialReplay(t *testing.T) {
	cfg := testConfig(64)
	cfg.CompactFanout = -1
	st := mustOpen(t, "", cfg)
	defer mustClose(t, st)
	stager := NewStager(st)

	var logMu sync.Mutex
	var committed stream.Stream
	stager.commitLog = func(merged stream.Stream, frontier int64) {
		logMu.Lock()
		committed = append(committed, merged...)
		logMu.Unlock()
	}

	// Each writer sends batches drawn from overlapping time windows, with
	// deliberate stragglers far behind, so cross-writer rejections occur and
	// the group-commit interleaving actually matters.
	const writers, batches, perBatch = 4, 25, 40
	results := make([]BatchResult, writers)
	var wg sync.WaitGroup
	for wID := 0; wID < writers; wID++ {
		wg.Add(1)
		go func(wID int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + wID)))
			for bn := 0; bn < batches; bn++ {
				base := int64(bn * 100)
				batch := make(stream.Stream, perBatch)
				for i := range batch {
					batch[i] = stream.Element{
						Event: uint64(rng.Intn(32)),
						Time:  base + rng.Int63n(150), // overlaps the next window
					}
				}
				// Straggler behind every plausible frontier.
				if bn > 2 && rng.Intn(2) == 0 {
					batch[0].Time = base - 250
				}
				res := stager.Append(batch)
				if res.Err != nil {
					t.Error(res.Err)
					return
				}
				results[wID].Appended += res.Appended
				results[wID].Rejected += res.Rejected
			}
		}(wID)
	}
	wg.Wait()

	var appended, rejected int64
	for _, r := range results {
		appended += r.Appended
		rejected += r.Rejected
	}
	if got := appended + rejected; got != writers*batches*perBatch {
		t.Fatalf("attribution lost elements: %d of %d accounted for", got, writers*batches*perBatch)
	}
	if st.N() != appended || st.Rejected() != rejected {
		t.Fatalf("attribution vs store: appended %d/%d rejected %d/%d",
			appended, st.N(), rejected, st.Rejected())
	}

	// Replay the exact committed sequence through the naive path.
	seq := mustOpen(t, "", cfg)
	defer mustClose(t, seq)
	seqRejected := int64(0)
	for _, el := range committed {
		if err := seq.Append(el.Event, el.Time); err != nil {
			seqRejected++
		}
	}
	if seq.N() != st.N() || seqRejected != rejected {
		t.Fatalf("sequential replay: n %d/%d rejected %d/%d", seq.N(), st.N(), seqRejected, rejected)
	}
	if err := st.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if err := seq.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	a, b := st.Segments(), seq.Segments()
	if len(a) != len(b) {
		t.Fatalf("segment counts differ: stager %d, sequential %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Elements != b[i].Elements {
			t.Fatalf("segment %d differs: stager %+v, sequential %+v", i, a[i], b[i])
		}
	}
	for e := uint64(0); e < 32; e += 3 {
		for q := int64(0); q <= st.MaxTime()+10; q += 113 {
			if x, y := st.Snapshot().CumulativeFrequency(e, q), seq.Snapshot().CumulativeFrequency(e, q); x != y {
				t.Fatalf("F(%d,%d): stager %v, sequential %v", e, q, x, y)
			}
			x, err := st.Snapshot().Burstiness(e, q, 60)
			if err != nil {
				t.Fatal(err)
			}
			y, err := seq.Snapshot().Burstiness(e, q, 60)
			if err != nil {
				t.Fatal(err)
			}
			if x != y {
				t.Fatalf("b(%d,%d): stager %v, sequential %v", e, q, x, y)
			}
		}
	}
}
