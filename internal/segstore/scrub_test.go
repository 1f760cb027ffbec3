package segstore

import (
	"os"
	"path/filepath"
	"testing"
)

func TestScrubQuarantinesCorruptedSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(8)
	cfg.CompactFanout = -1
	s := openStepped(t, dir, cfg)
	appendN(t, s, 16, 4, 0, 1) // two sealed segments
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) != 2 {
		t.Fatalf("fixture has %d segments, want 2", len(segs))
	}
	victim := segs[0]

	// Rot a byte of the first segment's file in place, under the store's
	// feet. The next scrub pass must notice and quarantine it, and say so
	// through Health however it was driven.
	path := filepath.Join(dir, victim.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	step(t, s, scrub)
	h := s.Health()
	if h.Quarantined != 1 || h.ScrubPasses != 1 {
		t.Fatalf("scrub pass did not quarantine the segment; health=%+v", h)
	}
	if h.QuarantinedElements != victim.Elements {
		t.Fatalf("quarantined %d elements, want %d", h.QuarantinedElements, victim.Elements)
	}
	if h.ScrubErr != "" {
		t.Fatalf("scrub reported machinery failure: %s", h.ScrubErr)
	}

	// Queries over the surviving history keep answering, and the envelope
	// reports the hole.
	sn := s.Snapshot()
	if got := len(sn.Segments()); got != 1 {
		t.Fatalf("%d live segments after quarantine, want 1", got)
	}
	if got := sn.N(); got != 16-victim.Elements {
		t.Fatalf("N=%d after quarantine, want %d", got, 16-victim.Elements)
	}
	if _, err := sn.Burstiness(1, 15, 4); err != nil {
		t.Fatalf("point query after quarantine: %v", err)
	}
	env := sn.Envelope(15)
	if !env.Degraded || env.MissingElements != victim.Elements {
		t.Fatalf("envelope after quarantine = %+v", env)
	}
	// An instant before the damaged span sees no missing history.
	if early := sn.Envelope(victim.Start - 1); early.Degraded {
		t.Fatalf("envelope before the damaged span = %+v", early)
	}

	// New ingest keeps flowing; the frontier still covers the lost span.
	if err := s.Append(1, 0); err == nil {
		t.Fatal("append inside the quarantined span was accepted")
	}
	if err := s.Append(1, 100); err != nil {
		t.Fatalf("append after quarantine: %v", err)
	}
	mustClose(t, s)

	// The file moved into quarantine/ and the state survives reopen.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("damaged file still in the store root")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, victim.File)); err != nil {
		t.Fatalf("damaged file not in quarantine/: %v", err)
	}
	r := mustOpen(t, dir, Config{})
	if h := r.Health(); h.Quarantined != 1 || h.QuarantinedElements != victim.Elements {
		t.Fatalf("reopen lost the quarantine: %+v", h)
	}
	if got := r.N(); got != 16-victim.Elements+1 {
		t.Fatalf("reopened N=%d, want %d", got, 16-victim.Elements+1)
	}
	mustClose(t, r)
}

func TestScrubCleanStoreStaysClean(t *testing.T) {
	dir := t.TempDir()
	s := openStepped(t, dir, testConfig(8))
	appendN(t, s, 16, 4, 0, 1)
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	// Several passes over healthy segments.
	for range 3 {
		step(t, s, scrub)
	}
	h := s.Health()
	if h.ScrubPasses != 3 {
		t.Fatalf("Health counts %d scrub passes, want 3", h.ScrubPasses)
	}
	if h.Quarantined != 0 || h.ScrubErr != "" {
		t.Fatalf("healthy store scrubbed into %+v", h)
	}
	mustClose(t, s)
}
