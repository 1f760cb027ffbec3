package segstore

import (
	"os"
	"path/filepath"
	"testing"

	"histburst/internal/faultio"
)

// The crash suite reproduces, byte by byte, every on-disk state a process
// crash can leave during the store's two write sequences — a segment file
// write followed by the manifest rewrite that references it — and checks
// that Open always recovers a consistent generation: the old one (crash
// before the manifest rename) with the new file swept as an orphan, or the
// new one (crash after).

// buildCrashFixture creates a store directory holding generation "old" (one
// sealed segment), and returns the bytes of the segment file and manifest
// that the next seal would have written ("new": two segments).
func buildCrashFixture(t *testing.T) (dir string, oldN int64, newSegName string, newSegData, newManData []byte, newN int64) {
	t.Helper()
	dir = t.TempDir()
	s := mustOpen(t, dir, testConfig(0))
	appendN(t, s, 10, 3, 0, 1)
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	oldN = s.N()
	oldMan, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}

	// Drive the real store through the second seal to harvest authentic
	// "new" bytes, then restore the directory to the old generation.
	appendN(t, s, 10, 3, 100, 1)
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	newN = s.N()
	mustClose(t, s)

	newMan, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(newMan.Segments) != 2 {
		t.Fatalf("fixture expected 2 segments, got %d", len(newMan.Segments))
	}
	newSegName = newMan.Segments[1].File
	newSegData, err = os.ReadFile(filepath.Join(dir, newSegName))
	if err != nil {
		t.Fatal(err)
	}
	newManData = newMan.Encode()

	// Rewind the directory to the old generation: old manifest, first
	// segment only.
	if err := os.Remove(filepath.Join(dir, newSegName)); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(filepath.Join(dir, ManifestName), oldMan); err != nil {
		t.Fatal(err)
	}
	return dir, oldN, newSegName, newSegData, newManData, newN
}

// cloneDir copies the fixture into a fresh directory for one crash step.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkRecovered opens dir and asserts the store landed on one of the two
// legal generations.
func checkRecovered(t *testing.T, dir string, step int, oldN, newN int64) {
	t.Helper()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("step %d: recovery failed: %v", step, err)
	}
	n := s.N()
	segs := len(s.Segments())
	if err := s.Close(); err != nil {
		t.Fatalf("step %d: close after recovery: %v", step, err)
	}
	switch {
	case n == oldN && segs == 1: // old generation intact
	case n == newN && segs == 2: // new generation complete
	default:
		t.Fatalf("step %d: recovered to N=%d with %d segments; want (%d,1) or (%d,2)",
			step, n, segs, oldN, newN)
	}
}

func TestCrashDuringSegmentWriteRecoversOldGeneration(t *testing.T) {
	dir, oldN, newSegName, newSegData, _, _ := buildCrashFixture(t)
	// A crash at any prefix of the segment file write: the manifest still
	// names only the old segment, so recovery must land on the old
	// generation and sweep the debris. Sampling every offset of a multi-KB
	// sketch file is cheap enough to do exhaustively.
	for step := 0; step < faultio.CrashSteps(newSegData); step++ {
		d := cloneDir(t, dir)
		left, err := faultio.CrashAtomicWrite(d, newSegName, newSegData, step)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(d, Config{})
		if err != nil {
			t.Fatalf("step %d: recovery failed: %v", step, err)
		}
		if got := s.N(); got != oldN {
			t.Fatalf("step %d: N = %d, want old generation %d", step, got, oldN)
		}
		if got := len(s.Segments()); got != 1 {
			t.Fatalf("step %d: %d segments, want 1", step, got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// The unreferenced debris (temp or fully-written orphan) is gone.
		if _, err := os.Stat(left); !os.IsNotExist(err) {
			t.Fatalf("step %d: crash debris %s survived recovery", step, filepath.Base(left))
		}
	}
}

func TestCrashDuringManifestWriteRecoversEitherGeneration(t *testing.T) {
	dir, oldN, newSegName, newSegData, newManData, newN := buildCrashFixture(t)
	// The segment file write completed (it precedes the manifest write in
	// the seal/compaction protocol); the crash hits the manifest rewrite at
	// every byte offset. Before the rename the old manifest is intact →
	// old generation; after it → new generation.
	for step := 0; step < faultio.CrashSteps(newManData); step++ {
		d := cloneDir(t, dir)
		if err := os.WriteFile(filepath.Join(d, newSegName), newSegData, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := faultio.CrashAtomicWrite(d, ManifestName, newManData, step); err != nil {
			t.Fatal(err)
		}
		checkRecovered(t, d, step, oldN, newN)
	}
}

func TestCrashLeavesTruncatedManifestTempIgnored(t *testing.T) {
	// A torn manifest temp file next to a healthy manifest must be ignored
	// and swept, never loaded.
	dir, oldN, _, _, newManData, _ := buildCrashFixture(t)
	tmp := filepath.Join(dir, ManifestName+".tmp-12345")
	if err := os.WriteFile(tmp, newManData[:len(newManData)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.N(); got != oldN {
		t.Fatalf("N = %d, want %d", got, oldN)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("manifest temp debris survived recovery")
	}
}

func TestCorruptManifestFailsLoudly(t *testing.T) {
	// Unlike crash debris, damage to the manifest itself (bit rot, partial
	// overwrite in place) is not recoverable silently — Open must refuse
	// rather than serve a history it cannot trust.
	dir, _, _, _, _, _ := buildCrashFixture(t)
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Config{}); err == nil {
		t.Fatal("Open accepted a corrupt manifest")
	}
}

func TestCorruptSegmentFileQuarantinedAtOpen(t *testing.T) {
	// A manifest-referenced segment file was fsynced before the manifest
	// named it; damage there is real loss, not a crash artifact. The store
	// opens anyway: the damaged segment is quarantined (manifest rewritten,
	// file moved to quarantine/), the survivors keep serving, and the error
	// envelope reports the missing span.
	dir, oldN, _, _, _, _ := buildCrashFixture(t)
	man, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	segName := man.Segments[0].File
	segPath := filepath.Join(dir, segName)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open refused a store with a damaged segment: %v", err)
	}
	if got := len(s.Segments()); got != 0 {
		t.Fatalf("%d live segments, want 0 (damaged one quarantined)", got)
	}
	h := s.Health()
	if h.Quarantined != 1 || h.QuarantinedElements != oldN {
		t.Fatalf("health reports %d quarantined / %d elements, want 1 / %d",
			h.Quarantined, h.QuarantinedElements, oldN)
	}
	sn := s.Snapshot()
	if got := len(sn.Quarantined()); got != 1 {
		t.Fatalf("snapshot reports %d quarantined segments, want 1", got)
	}
	env := sn.Envelope(1 << 30)
	if !env.Degraded || env.MissingElements != oldN || len(env.Missing) != 1 {
		t.Fatalf("envelope = %+v, want degraded with %d missing elements", env, oldN)
	}
	// The frontier still covers the quarantined span: those times are gone,
	// not reopenable.
	if err := s.Append(1, 0); err == nil {
		t.Fatal("append inside the quarantined span was accepted")
	}
	if err := s.Append(1, 1<<20); err != nil {
		t.Fatalf("append past the quarantined span: %v", err)
	}
	mustClose(t, s)

	// The evidence moved into quarantine/, out of the live directory.
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatal("damaged segment file still in the store root")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, segName)); err != nil {
		t.Fatalf("damaged segment file not in quarantine/: %v", err)
	}

	// The quarantine persists across reopen (manifest carries it).
	s2 := mustOpen(t, dir, Config{})
	if h := s2.Health(); h.Quarantined != 1 || h.QuarantinedElements != oldN {
		t.Fatalf("reopen lost the quarantine record: %+v", h)
	}
	mustClose(t, s2)
}

// buildCompactionCrashFixture creates a store directory holding two sealed
// same-class segments ("old" generation) plus the bytes the compaction
// swap would write: the merged segment file and the manifest naming it.
func buildCompactionCrashFixture(t *testing.T) (dir string, n int64, mergedName string, mergedData, manData []byte) {
	t.Helper()
	cfg := testConfig(8)
	cfg.CompactFanout = 2
	work := t.TempDir()
	s := openStepped(t, work, cfg)
	defer mustClose(t, s)
	appendN(t, s, 16, 4, 0, 1) // two level-0 seals of 8
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	n = s.N()
	if got := len(s.Segments()); got != 2 {
		t.Fatalf("fixture expected 2 segments, got %d", got)
	}
	// The sealed generation is the fixture; a real compaction step after
	// it harvests authentic merged bytes.
	dir = cloneDir(t, work)
	settle(t, s)
	man, err := LoadManifest(filepath.Join(work, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 1 || !man.Segments[0].Compacted {
		t.Fatalf("compaction fixture left %+v", man.Segments)
	}
	mergedName = man.Segments[0].File
	mergedData, err = os.ReadFile(filepath.Join(work, mergedName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, n, mergedName, mergedData, man.Encode()
}

// checkCompactionRecovered opens dir and asserts recovery landed on a legal
// generation: the two pre-compaction segments or the one merged segment —
// with every element still accounted for either way.
func checkCompactionRecovered(t *testing.T, dir string, step int, n int64) {
	t.Helper()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("step %d: recovery failed: %v", step, err)
	}
	gotN := s.N()
	segs := s.Segments()
	if err := s.Close(); err != nil {
		t.Fatalf("step %d: close after recovery: %v", step, err)
	}
	if gotN != n {
		t.Fatalf("step %d: recovered N=%d, want %d", step, gotN, n)
	}
	switch len(segs) {
	case 2: // old generation intact
	case 1: // merged generation complete
		if !segs[0].Compacted {
			t.Fatalf("step %d: single recovered segment is not the merged one: %+v", step, segs[0])
		}
	default:
		t.Fatalf("step %d: recovered %d segments, want 1 or 2", step, len(segs))
	}
}

func TestCrashDuringCompactionSegmentWriteRecoversOldGeneration(t *testing.T) {
	dir, n, mergedName, mergedData, _ := buildCompactionCrashFixture(t)
	// A crash at any prefix of the merged segment file write: the manifest
	// still names the two inputs, so recovery serves them and sweeps the
	// debris. Sample boundaries densely and the interior sparsely — the
	// interesting transitions are at the ends, and every step is a full
	// store open.
	steps := faultio.CrashSteps(mergedData)
	for step := 0; step < steps; step++ {
		if step > 64 && step < steps-64 && step%97 != 0 {
			continue
		}
		d := cloneDir(t, dir)
		left, err := faultio.CrashAtomicWrite(d, mergedName, mergedData, step)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(d, Config{})
		if err != nil {
			t.Fatalf("step %d: recovery failed: %v", step, err)
		}
		if got := s.N(); got != n {
			t.Fatalf("step %d: N = %d, want %d", step, got, n)
		}
		if got := len(s.Segments()); got != 2 {
			t.Fatalf("step %d: %d segments, want the 2 inputs", step, got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(left); !os.IsNotExist(err) {
			t.Fatalf("step %d: crash debris %s survived recovery", step, filepath.Base(left))
		}
	}
}

func TestCrashDuringCompactionManifestWriteRecoversEitherGeneration(t *testing.T) {
	dir, n, mergedName, mergedData, manData := buildCompactionCrashFixture(t)
	// The merged file write completed; the crash hits the manifest rewrite
	// at every byte offset. Before the rename the two inputs are live (the
	// merged file is an orphan, swept); after it the merged segment serves
	// and the inputs become tombstones.
	for step := 0; step < faultio.CrashSteps(manData); step++ {
		d := cloneDir(t, dir)
		if err := os.WriteFile(filepath.Join(d, mergedName), mergedData, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := faultio.CrashAtomicWrite(d, ManifestName, manData, step); err != nil {
			t.Fatal(err)
		}
		checkCompactionRecovered(t, d, step, n)
	}
}
