package segstore

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"histburst/internal/stream"
)

// openStepped opens a store without its workers: nothing seals, compacts,
// scrubs or syncs the log unless the test takes a step (or a Checkpoint
// seals on its goroutine), so a test chooses — and can replay — the order.
func openStepped(tb testing.TB, dir string, cfg Config) *Store {
	tb.Helper()
	s, err := open(dir, cfg)
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	return s
}

// The steps the workers take, for step.
var (
	seal    = (*Store).sealOnce
	compact = (*Store).compactOnce
	scrub   = func(s *Store) (bool, error) { return false, s.scrubOnce() }
)

// step takes one step on the test's goroutine and reports whether it
// progressed; a failed step fails the test.
func step(tb testing.TB, s *Store, kind func(*Store) (bool, error)) bool {
	tb.Helper()
	progressed, err := kind(s)
	if err != nil {
		tb.Fatal(err)
	}
	return progressed
}

// settle takes seal and compaction steps until neither progresses: a fixed
// point, where the workers would go idle.
func settle(tb testing.TB, s *Store) {
	tb.Helper()
	for step(tb, s, seal) || step(tb, s, compact) {
	}
}

// TestSteppedStoreIsReplayable: two stepped stores fed one stream under one
// seeded schedule of appends, seal, compaction and scrub steps and
// checkpoints stay alike after every step, down to the bytes they leave on
// disk — what lets a seeded stepper replay any interleaving. The stream
// starts at an epoch-scale origin, with compaction and one decay tier on.
func TestSteppedStoreIsReplayable(t *testing.T) {
	cfg := testConfig(64)
	cfg.CompactFanout = 2
	cfg.DecayTiers = []DecayTier{{Age: 3 * 86400, Gamma: 8, W: 8, Res: 3600}}
	dirs := []string{t.TempDir(), t.TempDir()}
	stores := []*Store{openStepped(t, dirs[0], cfg), openStepped(t, dirs[1], cfg)}
	same := func(what string) {
		t.Helper()
		a, b := stores[0], stores[1]
		if !reflect.DeepEqual(a.Segments(), b.Segments()) || a.Generation() != b.Generation() {
			t.Fatalf("after %s the stores differ:\n%+v\n%+v", what, a.Segments(), b.Segments())
		}
	}
	rng := rand.New(rand.NewSource(41))
	tm := int64(1_700_000_000)
	steps := []func(*Store) (bool, error){seal, compact, compact, scrub}
	for op := 0; op < 400; op++ {
		r, n := rng.Intn(10), 0
		if r < 5 {
			n = 1 + rng.Intn(40)
		}
		batch := make(stream.Stream, n)
		for i := range batch {
			batch[i] = stream.Element{Event: uint64(rng.Intn(16)), Time: tm}
			if rng.Intn(4) > 0 { // runs of equal timestamps straddle seals
				tm += rng.Int63n(3600)
			}
		}
		all := rng.Intn(2) == 0
		for _, s := range stores {
			switch {
			case r < 5:
				if _, rej, err := s.AppendBatch(batch); err != nil || rej > 0 {
					t.Fatalf("op %d: %d rejected, %v", op, rej, err)
				}
			case r < 9:
				step(t, s, steps[r-5])
			default:
				if err := s.Checkpoint(all); err != nil {
					t.Fatal(err)
				}
			}
		}
		same(fmt.Sprintf("op %d (%d)", op, r))
	}
	for _, s := range stores {
		settle(t, s)
	}
	same("settling")
	var compacted, decayed bool
	for _, g := range stores[0].Segments() {
		compacted, decayed = compacted || g.Compacted, decayed || g.Tier == 1
	}
	if !compacted || !decayed {
		t.Fatalf("the schedule did not both compact and decay: %+v", stores[0].Segments())
	}
	for _, s := range stores {
		mustClose(t, s)
	}
	durable := func(dir string) map[string]string {
		files := dirContents(t, dir)
		maps.DeleteFunc(files, func(name, _ string) bool {
			return name != ManifestName && !strings.HasPrefix(name, segFilePrefix)
		})
		return files
	}
	if a, b := durable(dirs[0]), durable(dirs[1]); len(a) < 3 || !reflect.DeepEqual(a, b) {
		t.Fatalf("the replays left different files: %d vs %d manifest and segment files", len(a), len(b))
	}
}
