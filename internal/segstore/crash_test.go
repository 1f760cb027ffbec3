package segstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"histburst/internal/faultio"
)

// The crash sweep crashes every commitSteps row at every state its writes
// can leave on disk and requires Open to recover one side of the commit.
// The step's files are the difference between the directory before and
// after it, replayed in the protocol's write order — each operation stopped
// at every state (a long file's sampled inside) while the earlier ones stay
// complete:
//
//  1. new segment files (temp write, then rename);
//  2. the manifest (temp write, then rename);
//  3. tombstone deletions and moves into quarantine/;
//  4. the new log file (written in place, so any prefix);
//  5. deletion of the older logs.
//
// Every state must reopen to the segments, quarantined segments, N and
// probe answers of the store reopened from before or after the step, to the
// bit (the generation may differ: Open quarantines damage itself), leave
// only the manifest, live segment files, logs and quarantine/ in the root,
// and close cleanly. The order is written once here, so this proves
// recovery from what that order can leave, not that the code keeps to it.
//
// Each test in crashSlices crashes its row's operations of the kinds it
// lists; TestCrashDuringEveryCommit crashes every operation no slice
// claims, so each state is swept once.
var crashSlices = []struct {
	test, row string
	kinds     []opKind
}{
	{"TestCrashDuringSegmentWriteRecoversOldGeneration", "seal", []opKind{opSegment}},
	{"TestCrashDuringManifestWriteRecoversEitherGeneration", "seal", []opKind{opManifest}},
	// Every partial manifest temp beside a healthy manifest is swept.
	{"TestCrashLeavesTruncatedManifestTempIgnored", "quarantine", []opKind{opManifest}},
	{"TestCrashDuringCompactionSegmentWriteRecoversOldGeneration", "compaction swap", []opKind{opSegment}},
	{"TestCrashDuringCompactionManifestWriteRecoversEitherGeneration", "compaction swap", []opKind{opManifest, opRemoval}},
	{"TestCrashDuringDecaySegmentWriteRecoversOldGeneration", "decay swap", []opKind{opSegment}},
	{"TestCrashDuringDecayManifestWriteRecoversEitherGeneration", "decay swap", []opKind{opManifest, opRemoval}},
}

func TestCrashDuringSegmentWriteRecoversOldGeneration(t *testing.T)               { sweepSlice(t) }
func TestCrashDuringManifestWriteRecoversEitherGeneration(t *testing.T)           { sweepSlice(t) }
func TestCrashLeavesTruncatedManifestTempIgnored(t *testing.T)                    { sweepSlice(t) }
func TestCrashDuringCompactionSegmentWriteRecoversOldGeneration(t *testing.T)     { sweepSlice(t) }
func TestCrashDuringCompactionManifestWriteRecoversEitherGeneration(t *testing.T) { sweepSlice(t) }
func TestCrashDuringDecaySegmentWriteRecoversOldGeneration(t *testing.T)          { sweepSlice(t) }
func TestCrashDuringDecayManifestWriteRecoversEitherGeneration(t *testing.T)      { sweepSlice(t) }

// TestCrashDuringEveryCommit sweeps, in each commitSteps row, the
// operations no crashSlices test claims: the rows no slice names whole, the
// post-seal log rotation in the others.
func TestCrashDuringEveryCommit(t *testing.T) {
	for _, tc := range commitSteps {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			claimed := map[opKind]bool{}
			for _, sl := range crashSlices {
				if sl.row == tc.name {
					for _, k := range sl.kinds {
						claimed[k] = true
					}
				}
			}
			sweepCommit(t, tc, func(k opKind) bool { return !claimed[k] })
		})
	}
}

// sweepSlice runs the crashSlices entry named by the test.
func sweepSlice(t *testing.T) {
	t.Parallel()
	for _, sl := range crashSlices {
		if sl.test != t.Name() {
			continue
		}
		for _, tc := range commitSteps {
			if tc.name == sl.row {
				if sweepCommit(t, tc, func(k opKind) bool { return slices.Contains(sl.kinds, k) }) == 0 {
					t.Fatalf("row %q wrote no operation of kinds %v", sl.row, sl.kinds)
				}
				return
			}
		}
		t.Fatalf("no commitSteps row %q", sl.row)
	}
	t.Fatalf("no crashSlices entry for %s", t.Name())
}

// sweepCommit takes tc's step and crashes each of its operations whose kind
// crash selects at every state, as the sweep's contract above says. It
// returns how many states it crashed.
func sweepCommit(t *testing.T, tc commitStep, crash func(opKind) bool) (swept int) {
	t.Helper()
	dir := t.TempDir()
	s := openStepped(t, dir, tc.cfg)
	defer mustClose(t, s)
	tc.setup(t, s)
	before := cloneDir(t, dir)
	gen := s.Generation()
	if err := tc.step(s); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != gen+1 {
		t.Fatalf("the step took generation %d to %d, want one commit", gen, got)
	}
	sides := []recovered{recoverDir(t, cloneDir(t, before), tc.cfg), recoverDir(t, cloneDir(t, dir), tc.cfg)}

	ops := commitWrites(t, before, dir)
	defer func() { t.Logf("%d crash states over %d file operations", swept, len(ops)) }()
	for i, op := range ops {
		if !crash(op.kind) {
			continue
		}
		for k := 0; k < op.states; k++ {
			if k > 48 && k < op.states-48 && k%97 != 0 {
				continue // long files: every state near both ends, a sample inside
			}
			d := cloneDir(t, before)
			for _, done := range ops[:i] {
				done.apply(t, d, done.states-1)
			}
			op.apply(t, d, k)
			swept++
			if got := recoverDir(t, d, tc.cfg); !reflect.DeepEqual(got, sides[0]) && !reflect.DeepEqual(got, sides[1]) {
				t.Fatalf("a crash in %s at state %d of %d recovered %+v;\nbefore the step: %+v\nafter it:        %+v",
					op.what, k, op.states, got, sides[0], sides[1])
			}
		}
	}
	return swept
}

// recovered is what a store reopened after a crash must agree on with one
// side of the commit.
type recovered struct {
	segs, quar []uint64
	n          int64
	probes     []float64
}

// recoverDir opens the store in dir, requires Open to have left no crash
// debris in its root, and closes it.
func recoverDir(t *testing.T, dir string, cfg Config) recovered {
	t.Helper()
	s := openStepped(t, dir, cfg)
	c := observe(t, s)
	keep := map[string]bool{ManifestName: true, quarantineDir: true}
	for _, g := range c.segs {
		keep[g.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); !keep[name] && !(strings.HasPrefix(name, walFilePrefix) && strings.HasSuffix(name, walFileSuffix)) {
			t.Fatalf("recovery left %s in the store root", name)
		}
	}
	mustClose(t, s)
	return recovered{segmentIDs(c.segs), segmentIDs(c.quar), c.n, c.probes}
}

// A crashOp is one file operation of a commit: apply(dir, k) leaves the
// operation stopped at state k of states, the last being the finished one.
type crashOp struct {
	what   string
	kind   opKind
	states int
	apply  func(t *testing.T, dir string, k int)
}

// opKind names a crashOp's place in the protocol's write order.
type opKind int

const (
	opSegment     opKind = iota // a new segment file
	opManifest                  // the manifest
	opRemoval                   // segment deletions and moves into quarantine/
	opLog                       // the new log file
	opLogDeletion               // deletions of the older logs
)

// commitWrites returns the operations that take the store root from before
// to after, in the protocol's write order.
func commitWrites(t *testing.T, before, after string) []crashOp {
	t.Helper()
	old, cur := rootFiles(t, before), rootFiles(t, after)
	changed := func(in, notIn map[string][]byte, prefix string) []string {
		var names []string
		for name := range in {
			if _, ok := notIn[name]; !ok && strings.HasPrefix(name, prefix) {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		return names
	}
	for name, data := range cur {
		if prev, ok := old[name]; ok && name != ManifestName && !bytes.Equal(prev, data) {
			t.Fatalf("the step rewrote %s in place, which no crash state models", name)
		}
		if !strings.HasPrefix(name, segFilePrefix) && !strings.HasPrefix(name, walFilePrefix) && name != ManifestName {
			t.Fatalf("the step wrote %s, which no crash state models", name)
		}
	}

	var ops []crashOp
	atomic := func(name string, kind opKind) {
		data := cur[name]
		ops = append(ops, crashOp{name, kind, faultio.CrashSteps(data), func(t *testing.T, d string, k int) {
			if _, err := faultio.CrashAtomicWrite(d, name, data, k); err != nil {
				t.Fatal(err)
			}
		}})
	}
	// removals moves or deletes the first k of names, as after holds them.
	removals := func(what string, kind opKind, names []string) {
		if len(names) == 0 {
			return
		}
		ops = append(ops, crashOp{what, kind, len(names) + 1, func(t *testing.T, d string, k int) {
			for _, name := range names[:k] {
				src, err := filepath.Join(d, name), error(nil)
				if _, moved := os.Stat(filepath.Join(after, quarantineDir, name)); moved != nil {
					err = os.Remove(src)
				} else if err = os.MkdirAll(filepath.Join(d, quarantineDir), 0o755); err == nil {
					err = os.Rename(src, filepath.Join(d, quarantineDir, name))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}})
	}
	for _, name := range changed(cur, old, segFilePrefix) {
		atomic(name, opSegment)
	}
	if !bytes.Equal(old[ManifestName], cur[ManifestName]) {
		atomic(ManifestName, opManifest)
	}
	removals("segment removals", opRemoval, changed(old, cur, segFilePrefix))
	for _, name := range changed(cur, old, walFilePrefix) {
		data := cur[name]
		ops = append(ops, crashOp{name, opLog, faultio.CrashPrefixSteps(data), func(t *testing.T, d string, k int) {
			if _, err := faultio.CrashAppendWrite(d, name, data, k); err != nil {
				t.Fatal(err)
			}
		}})
	}
	removals("log deletions", opLogDeletion, changed(old, cur, walFilePrefix))
	if len(ops) == 0 {
		t.Fatal("the step wrote nothing")
	}
	return ops
}

// rootFiles reads every file in dir's root.
func rootFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// cloneDir copies dir's root files into a fresh directory. Subdirectories
// (quarantine/, evidence the store never reads) are left out.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, data := range rootFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// oneSealDir returns a store directory holding one sealed segment of n
// elements.
func oneSealDir(t *testing.T) (dir string, n int64) {
	t.Helper()
	dir = t.TempDir()
	s := mustOpen(t, dir, testConfig(0))
	appendN(t, s, 10, 3, 0, 1)
	mustClose(t, s) // Close seals the whole head
	return dir, 10
}

func TestCorruptManifestFailsLoudly(t *testing.T) {
	// Unlike crash debris, damage to the manifest itself (bit rot, partial
	// overwrite in place) is not recoverable silently — Open must refuse
	// rather than serve a history it cannot trust.
	dir, _ := oneSealDir(t)
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
	dir, oldN := oneSealDir(t)
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
