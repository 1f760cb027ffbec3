package segstore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"histburst"
)

// commitStep is one kind of step that commits a next view, and a store it
// commits on.
type commitStep struct {
	name  string
	cfg   Config
	setup func(t *testing.T, s *Store)
	step  func(s *Store) error
	fails string // the failed step's error names it
}

// commitSteps holds every step that commits a next view: seal, compaction
// swap, decay swap, quarantine and Bootstrap. Both halves of the commit
// contract range over it — a failed commit changes nothing
// (TestFailedCommitChangesNothing), and a crash anywhere in a commit's
// writes recovers to one side of it (the crash sweep, crash_test.go) — so a new
// kind of commit inherits both proofs by adding a row.
var commitSteps = []commitStep{
	{"seal", fanoutConfig(8, -1),
		func(t *testing.T, s *Store) { appendN(t, s, 16, 4, 0, 1) }, // one frozen head, one live
		func(s *Store) error { _, err := s.sealOnce(); return err }, "seal: "},
	{"compaction swap", fanoutConfig(8, 2), sealedSetup(16, 1),
		func(s *Store) error { _, err := s.compactOnce(); return err }, "compaction: "},
	{"decay swap", func() Config {
		cfg := fanoutConfig(8, 2)
		cfg.DecayTiers = []DecayTier{{Age: 5000, Gamma: 8, W: 8, Res: 100}}
		return cfg
	}(), sealedSetup(24, 1000), // the first two of three segments are due
		func(s *Store) error { _, err := s.compactOnce(); return err }, "decay: "},
	{"quarantine", fanoutConfig(8, -1),
		func(t *testing.T, s *Store) {
			sealedSetup(16, 1)(t, s)
			path := filepath.Join(s.dir, s.Segments()[0].File)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		(*Store).scrubOnce, "quarantine segment "},
	{"Bootstrap", testConfig(8), func(*testing.T, *Store) {},
		func(s *Store) error {
			det, err := histburst.New(64, histburst.WithSeed(7), histburst.WithPBE2(2), histburst.WithSketchDims(3, 32))
			if err != nil {
				return err
			}
			for i := 0; i < 30; i++ {
				det.Append(uint64(i%5), int64(10+i))
			}
			return s.Bootstrap(det)
		}, ManifestName},
}

func fanoutConfig(sealEvents int64, fanout int) Config {
	cfg := testConfig(sealEvents)
	cfg.CompactFanout = fanout
	return cfg
}

// sealedSetup appends n elements dt apart and seals them all.
func sealedSetup(n int, dt int64) func(t *testing.T, s *Store) {
	return func(t *testing.T, s *Store) {
		appendN(t, s, n, 4, 0, dt)
		if err := s.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedCommitChangesNothing holds every commitSteps row to the one
// failure rule: while the manifest cannot be written, the step fails and
// nothing in memory changes, so a freeze after it still publishes exactly
// what the manifest on disk names. Once the manifest can be written again,
// the step commits a manifest naming the published segments, the failure
// is off the record, and a reopen answers bit-identically.
func TestFailedCommitChangesNothing(t *testing.T) {
	for _, tc := range commitSteps {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStepped(t, dir, tc.cfg)
			defer mustClose(t, s)
			tc.setup(t, s)
			manifest := filepath.Join(dir, ManifestName)
			onDisk, err := os.ReadFile(manifest)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
			man := &Manifest{}
			if onDisk != nil {
				if man, err = DecodeManifest(onDisk); err != nil {
					t.Fatal(err)
				}
			}

			blockManifest(t, dir)
			before := observe(t, s)
			if err := tc.step(s); err == nil || !strings.Contains(err.Error(), tc.fails) {
				t.Fatalf("the step returned %v without writing its manifest, want an error naming %q", err, tc.fails)
			}
			if after := observe(t, s); !reflect.DeepEqual(after, before) {
				t.Fatalf("a failed commit changed the store:\n before %+v\n after  %+v", before, after)
			}
			if err := s.freezeHead(s.view.Load(), false); err != nil {
				t.Fatal(err)
			}
			if gen, ids := s.Generation(), segmentIDs(s.Segments()); gen != man.Generation || !reflect.DeepEqual(ids, manifestIDs(man.Segments)) {
				t.Fatalf("after a freeze the store publishes generation %d, segments %v; the manifest on disk names %d, %v",
					gen, ids, man.Generation, manifestIDs(man.Segments))
			}

			if err := os.RemoveAll(manifest); err != nil {
				t.Fatal(err)
			}
			if onDisk != nil {
				if err := os.WriteFile(manifest, onDisk, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.step(s); err != nil {
				t.Fatalf("the step failed once its manifest could be written: %v", err)
			}
			if err := s.Err(); err != nil {
				t.Fatalf("the store still reports the failure a retried step recovered from: %v", err)
			}
			if man, err = LoadManifest(manifest); err != nil {
				t.Fatal(err)
			}
			sn := s.Snapshot()
			if man.Generation != sn.Generation() ||
				!reflect.DeepEqual(manifestIDs(man.Segments), segmentIDs(sn.Segments())) ||
				!reflect.DeepEqual(manifestIDs(man.Quarantined), segmentIDs(sn.Quarantined())) {
				t.Fatalf("the manifest names generation %d, segments %v, quarantined %v; the store publishes %d, %v, %v",
					man.Generation, manifestIDs(man.Segments), manifestIDs(man.Quarantined),
					sn.Generation(), segmentIDs(sn.Segments()), segmentIDs(sn.Quarantined()))
			}
			r := openStepped(t, cloneDir(t, dir), tc.cfg)
			defer mustClose(t, r)
			if got, want := observe(t, r).probes, observe(t, s).probes; !reflect.DeepEqual(got, want) {
				t.Fatalf("the reopened store answers %v, the store %v", got, want)
			}
		})
	}
}

// TestFailedCommitRetriedByCheckpoint: on a store with its workers, seals
// whose commits failed — the sealer's, nudged by each freeze, or a
// Checkpoint's own — are retried once the manifest can be written again:
// the next Checkpoint commits every frozen head, and neither it, Err nor
// Close still reports the failure.
func TestFailedCommitRetriedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, fanoutConfig(8, -1))
	defer mustClose(t, s)
	blockManifest(t, dir)
	appendN(t, s, 16, 4, 0, 1)
	if err := s.Checkpoint(false); err == nil || s.Err() == nil {
		t.Fatalf("Checkpoint returned %v and Err %v with no manifest to write", err, s.Err())
	}
	if err := os.RemoveAll(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(false); err != nil {
		t.Fatalf("Checkpoint after the disk recovered: %v", err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err after a committed Checkpoint: %v", err)
	}
	man, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if sn.Head().Frozen != 0 || len(man.Segments) == 0 || !reflect.DeepEqual(manifestIDs(man.Segments), segmentIDs(sn.Segments())) {
		t.Fatalf("after Checkpoint %d heads are frozen and the store publishes %v; the manifest names %v",
			sn.Head().Frozen, segmentIDs(sn.Segments()), manifestIDs(man.Segments))
	}
}

// blockManifest puts a non-empty directory where dir's manifest goes: its
// rename fails with EISDIR, whatever the caller's privileges.
func blockManifest(t *testing.T, dir string) {
	t.Helper()
	manifest := filepath.Join(dir, ManifestName)
	if err := os.Remove(manifest); err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(manifest, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
}

// composition is what a failed commit must leave unchanged.
type composition struct {
	gen        uint64
	segs, quar []SegmentInfo
	frozen     int
	n          int64
	probes     []float64
}

func observe(t *testing.T, s *Store) composition {
	t.Helper()
	sn := s.Snapshot()
	c := composition{gen: sn.Generation(), segs: sn.Segments(), quar: sn.Quarantined(), frozen: sn.Head().Frozen, n: sn.N()}
	for e := uint64(0); e < 4; e++ {
		for _, at := range []int64{0, 5, 10, 15, 25, 40, 1000, 8000, 16000, 23000, 30000} {
			for _, tau := range []int64{4, 4000} {
				b, err := sn.Burstiness(e, at, tau)
				if err != nil {
					t.Fatal(err)
				}
				c.probes = append(c.probes, b)
			}
		}
	}
	return c
}

func segmentIDs(infos []SegmentInfo) []uint64 {
	ids := []uint64{}
	for _, g := range infos {
		ids = append(ids, g.ID)
	}
	return ids
}

func manifestIDs(metas []SegmentMeta) []uint64 {
	ids := []uint64{}
	for _, g := range metas {
		ids = append(ids, g.ID)
	}
	return ids
}
