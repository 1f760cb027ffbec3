package segstore

import "testing"

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
func settle(tb testing.TB, s *Store) { settleWithin(tb, s, 100_000) }

// settleWithin is settle failing if it takes more than limit steps.
func settleWithin(tb testing.TB, s *Store, limit int) {
	tb.Helper()
	for i := 0; step(tb, s, seal) || step(tb, s, compact); i++ {
		if i == limit {
			tb.Fatalf("seal and compaction steps still progress after %d", limit)
		}
	}
}
