package segstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"histburst"
	"histburst/internal/stream"
)

// testConfig is a small, fast layout shared by most tests.
func testConfig(sealEvents int64) Config {
	return Config{K: 64, Gamma: 2, Seed: 7, D: 3, W: 32, SealEvents: sealEvents}
}

func mustOpen(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustClose(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// appendN appends n elements cycling over events [0, span) with strictly
// increasing timestamps starting at t0, stepping by dt.
func appendN(t *testing.T, s *Store, n int, span uint64, t0, dt int64) int64 {
	t.Helper()
	tm := t0
	for i := 0; i < n; i++ {
		if err := s.Append(uint64(i)%span, tm); err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
		tm += dt
	}
	return tm - dt
}

// genStream produces a deterministic bursty stream: background arrivals over
// [0, horizon) plus dense bursts for a few hot events.
func genStream(n int, span uint64, horizon int64, seed int64) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	var elems stream.Stream
	for i := 0; i < n; i++ {
		elems = append(elems, stream.Element{
			Event: rng.Uint64() % span,
			Time:  rng.Int63n(horizon),
		})
	}
	// Hot events: bursts concentrated in short windows.
	for _, b := range []struct {
		e      uint64
		at, w  int64
		copies int
	}{
		{e: 1, at: horizon / 4, w: 20, copies: 40},
		{e: 2, at: horizon / 2, w: 10, copies: 60},
		{e: 3, at: 3 * horizon / 4, w: 30, copies: 50},
	} {
		for i := 0; i < b.copies; i++ {
			elems = append(elems, stream.Element{Event: b.e, Time: b.at + rng.Int63n(b.w)})
		}
	}
	elems.Sort()
	return elems
}

// checkpointed ingests elems into a volatile store and checkpoints it.
func checkpointed(t *testing.T, elems stream.Stream, cfg Config, all bool) *Store {
	t.Helper()
	s := mustOpen(t, "", cfg)
	if _, rej, err := s.AppendBatch(elems); err != nil || rej > 0 {
		t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
	}
	if err := s.Checkpoint(all); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVolatileHeadOnlyQueries(t *testing.T) {
	s := mustOpen(t, "", testConfig(-1)) // sealing off: everything stays in the head
	defer mustClose(t, s)

	for _, el := range []stream.Element{
		{Event: 3, Time: 10}, {Event: 3, Time: 11}, {Event: 3, Time: 12},
		{Event: 5, Time: 12}, {Event: 3, Time: 20},
	} {
		if err := s.Append(el.Event, el.Time); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.N(); got != 5 {
		t.Fatalf("N = %d, want 5", got)
	}
	if got := s.Snapshot().CumulativeFrequency(3, 12); got != 3 {
		t.Fatalf("F(3,12) = %v, want 3 (exact head)", got)
	}
	b, err := s.Snapshot().Burstiness(3, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	// F(12)-2F(7)+F(2) = 3 - 0 + 0.
	if b != 3 {
		t.Fatalf("b(3,12,5) = %v, want 3", b)
	}
	if got := s.MaxTime(); got != 20 {
		t.Fatalf("MaxTime = %d, want 20", got)
	}
	if segs := s.Segments(); len(segs) != 0 {
		t.Fatalf("unexpected sealed segments: %+v", segs)
	}
}

func TestSealThresholdProducesSegments(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testConfig(8))
	appendN(t, s, 40, 4, 100, 1)
	if err := s.Checkpoint(false); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	segs := s.Segments()
	if len(segs) == 0 {
		t.Fatal("no segments sealed despite threshold crossings")
	}
	// Segment spans must be ascending and non-overlapping (equal boundaries
	// allowed), and the element totals must account for everything sealed.
	total := int64(0)
	for i, g := range segs {
		if g.Elements <= 0 || g.Start > g.End {
			t.Fatalf("segment %d malformed: %+v", i, g)
		}
		if i > 0 && g.Start < segs[i-1].End {
			t.Fatalf("segment %d overlaps predecessor: %+v after %+v", i, g, segs[i-1])
		}
		total += g.Elements
	}
	if n := s.N(); total > n || n != 40 {
		t.Fatalf("sealed %d of N=%d (want N=40)", total, n)
	}
	mustClose(t, s)
}

func TestCheckpointEmptyHeadIsNoOp(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testConfig(0))
	defer mustClose(t, s)
	gen := s.Generation()
	if err := s.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != gen {
		t.Fatalf("empty checkpoint bumped generation %d -> %d", gen, got)
	}
	if len(s.Segments()) != 0 {
		t.Fatal("empty checkpoint sealed a segment")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(8))
	last := appendN(t, s, 50, 4, 1000, 3)
	wantN := s.N()
	mustClose(t, s)

	// Capture expectations from one recovered instance — after recovery the
	// whole history is sealed, so a second recovery must answer identically.
	// Compaction stays off in both: a background merge landing between the
	// two captures would legitimately change the estimates.
	s = mustOpen(t, dir, Config{CompactFanout: -1})
	wantF := s.Snapshot().CumulativeFrequency(2, last)
	wantB, err := s.Snapshot().Burstiness(2, last, 30)
	if err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)

	s = mustOpen(t, dir, Config{CompactFanout: -1}) // all parameters recovered from the manifest
	defer mustClose(t, s)
	if p := s.Params(); p.K != 64 || p.Seed != 7 || p.Gamma != 2 || p.D != 3 || p.W != 32 {
		t.Fatalf("recovered params %+v", p)
	}
	if got := s.N(); got != wantN {
		t.Fatalf("recovered N = %d, want %d", got, wantN)
	}
	if got := s.Snapshot().CumulativeFrequency(2, last); got != wantF {
		t.Fatalf("recovered F = %v, want %v", got, wantF)
	}
	if got, err := s.Snapshot().Burstiness(2, last, 30); err != nil || got != wantB {
		t.Fatalf("recovered b = %v (%v), want %v", got, err, wantB)
	}
	if got := s.MaxTime(); got != last {
		t.Fatalf("recovered MaxTime = %d, want %d", got, last)
	}
}

func TestConfigConflictOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(0))
	appendN(t, s, 5, 2, 1, 1)
	mustClose(t, s)

	for name, cfg := range map[string]Config{
		"K":     {K: 128},
		"Seed":  {Seed: 9},
		"Gamma": {Gamma: 4},
		"W":     {W: 16},
	} {
		if _, err := Open(dir, cfg); err == nil {
			t.Errorf("conflicting %s silently accepted", name)
		}
	}
	// Matching explicit values open fine.
	s = mustOpen(t, dir, testConfig(0))
	mustClose(t, s)
}

func TestOpenRequiresKForNewStore(t *testing.T) {
	if _, err := Open("", Config{}); err == nil {
		t.Fatal("Open without K on a fresh store must fail")
	}
}

func TestBootstrapFromDetector(t *testing.T) {
	det, err := histburst.New(64, histburst.WithSeed(7), histburst.WithPBE2(2), histburst.WithSketchDims(3, 32))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		det.Append(uint64(i%5), int64(10+i))
	}
	det.Finish()

	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(0))
	if err := s.Bootstrap(det); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if got := s.N(); got != 30 {
		t.Fatalf("N = %d, want 30", got)
	}
	// Single segment, identical sketch: estimates must match bit-exactly.
	for e := uint64(0); e < 5; e++ {
		for _, q := range []int64{9, 15, 25, 39, 50} {
			if got, want := s.Snapshot().CumulativeFrequency(e, q), det.CumulativeFrequency(e, q); got != want {
				t.Fatalf("F(%d,%d) = %v, detector says %v", e, q, got, want)
			}
		}
	}
	// The store keeps ingesting past the bootstrap segment.
	if err := s.Append(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Bootstrap(det); err == nil {
		t.Fatal("Bootstrap into a non-empty store must fail")
	}
	mustClose(t, s)

	// The bootstrapped store must recover from its manifest.
	s = mustOpen(t, dir, Config{})
	if got := s.N(); got != 31 {
		t.Fatalf("recovered N = %d, want 31", got)
	}
	mustClose(t, s)
}

// TestBootstrapRejectsMismatchedParams: a detector seeds a store only when
// its parameters are the store's, every one of them; the one that is
// accepted.
func TestBootstrapRejectsMismatchedParams(t *testing.T) {
	cfg := testConfig(0)
	want := histburst.SketchParams{K: cfg.K, Seed: cfg.Seed, D: cfg.D, W: cfg.W, Gamma: cfg.Gamma}
	for name, edit := range map[string]func(p *histburst.SketchParams){
		"id space":  func(p *histburst.SketchParams) { p.K = 128 },
		"seed":      func(p *histburst.SketchParams) { p.Seed++ },
		"layout":    func(p *histburst.SketchParams) { p.D, p.W = 2, 48 },
		"error cap": func(p *histburst.SketchParams) { p.Gamma = 4 },
		"none":      func(*histburst.SketchParams) {},
	} {
		p := want
		edit(&p)
		det, err := histburst.NewFromParams(p)
		if err != nil {
			t.Fatal(err)
		}
		det.Append(3, 10)
		s := mustOpen(t, "", cfg)
		err = s.Bootstrap(det)
		mustClose(t, s)
		switch {
		case name == "none" && err != nil:
			t.Errorf("matching detector refused: %v", err)
		case name != "none" && (err == nil || !strings.Contains(err.Error(), "do not match store")):
			t.Errorf("%s: Bootstrap of a mismatched detector: %v", name, err)
		}
	}
}

func TestOrphanSweepAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(0))
	appendN(t, s, 10, 2, 1, 1)
	mustClose(t, s)

	// Plant debris: an unreferenced segment file, a crashed temp file, and a
	// foreign file that must survive the sweep.
	orphan := filepath.Join(dir, segFileName(999))
	tmp := filepath.Join(dir, segFileName(998)+".tmp-crash3")
	foreign := filepath.Join(dir, "notes.txt")
	for _, p := range []string{orphan, tmp, foreign} {
		if err := os.WriteFile(p, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s = mustOpen(t, dir, Config{})
	mustClose(t, s)
	for _, p := range []string{orphan, tmp} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the orphan sweep", filepath.Base(p))
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("foreign file swept: %v", err)
	}
}

func TestCloseSealsEverything(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(-1)) // nothing seals on its own
	appendN(t, s, 25, 3, 1, 2)
	mustClose(t, s)
	if err := s.Append(1, 1000); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}

	s = mustOpen(t, dir, Config{})
	defer mustClose(t, s)
	if got := s.N(); got != 25 {
		t.Fatalf("recovered N = %d, want 25", got)
	}
}

func TestManifestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Manifest{
		Generation: 42,
		NextID:     7,
		Params:     histburst.SketchParams{K: 64, Seed: 7, D: 3, W: 32, Gamma: 2},
		Segments: []SegmentMeta{
			{ID: 1, File: segFileName(1), Start: -5, End: 10, MinT: -5, MaxT: 10, Elements: 100},
			{ID: 6, File: segFileName(6), Start: 10, End: 20, MinT: 10, MaxT: 20, Elements: 50, Compacted: true},
		},
	}
	got, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != m.Generation || got.NextID != m.NextID || got.Params != m.Params {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Segments) != 2 || got.Segments[0] != m.Segments[0] || got.Segments[1] != m.Segments[1] {
		t.Fatalf("segments mismatch: %+v", got.Segments)
	}
}

func TestManifestRejectsPathTraversal(t *testing.T) {
	for _, name := range []string{"../evil", "a/b", `a\b`, ".", ".."} {
		m := &Manifest{
			NextID: 2,
			Params: histburst.SketchParams{K: 64, Seed: 1, D: 3, W: 32, Gamma: 2},
			Segments: []SegmentMeta{
				{ID: 1, File: name, Start: 0, End: 1, MinT: 0, MaxT: 1, Elements: 1},
			},
		}
		if _, err := DecodeManifest(m.Encode()); err == nil {
			t.Errorf("file name %q accepted", name)
		}
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	m := &Manifest{
		NextID: 2,
		Params: histburst.SketchParams{K: 64, Seed: 1, D: 3, W: 32, Gamma: 2},
		Segments: []SegmentMeta{
			{ID: 1, File: segFileName(1), Start: 0, End: 9, MinT: 0, MaxT: 9, Elements: 10},
		},
	}
	data := m.Encode()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if dec, err := DecodeManifest(mut); err == nil {
			// A CRC collision at one flipped bit is impossible; anything
			// accepted here is a real decoder hole.
			t.Fatalf("bit flip at %d accepted: %+v", i, dec)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeManifest(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestManifestRejectsImplausibleParams: a manifest whose checksum holds but
// whose sketch configuration no store could have written is corruption — in
// particular the all-zero configuration, which must not survive decoding only
// to fail later in Open as a missing K.
func TestManifestRejectsImplausibleParams(t *testing.T) {
	ok := histburst.SketchParams{K: 64, Seed: 1, D: 3, W: 32, Gamma: 2}
	for _, tc := range []struct {
		name   string
		mutate func(*histburst.SketchParams)
		want   string
	}{
		{"unset params", func(p *histburst.SketchParams) { *p = histburst.SketchParams{} }, "implausible id space 0"},
		{"id space beyond the bound", func(p *histburst.SketchParams) { p.K = maxEventSpace + 1 }, "implausible id space"},
		{"zero depth", func(p *histburst.SketchParams) { p.D = 0 }, "implausible sketch dimensions"},
		{"absurd width", func(p *histburst.SketchParams) { p.W = maxSketchDim + 1 }, "implausible sketch dimensions"},
	} {
		m := &Manifest{Generation: 1, Params: ok}
		tc.mutate(&m.Params)
		_, err := DecodeManifest(m.Encode())
		if err == nil || !strings.Contains(err.Error(), "corrupt manifest: "+tc.want) {
			t.Errorf("%s: err = %v, want corrupt manifest: %s", tc.name, err, tc.want)
		}
	}
}

// dirContents reads every regular file under dir, keyed by relative path.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOpenRefusesLegacyManifest: a directory whose manifest is of a retired
// generation (HBM1–HBM3) is refused with an error naming that version, and
// nothing in it is rewritten or swept.
func TestOpenRefusesLegacyManifest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(8))
	appendN(t, s, 16, 4, 0, 1)
	mustClose(t, s)
	man, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	// Debris the open-time sweep would remove from a store it accepted.
	if err := os.WriteFile(filepath.Join(dir, segFileName(999)), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{1, 2, 3} {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), encodeLegacyManifest(man, version), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirContents(t, dir)
		re, err := Open(dir, Config{})
		if err == nil {
			mustClose(t, re)
			t.Fatalf("HBM%d manifest accepted", version)
		}
		if want := fmt.Sprintf("unsupported manifest format HBM%d", version); !strings.Contains(err.Error(), want) {
			t.Fatalf("HBM%d manifest refused without naming its version: %v", version, err)
		}
		if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("refusing an HBM%d manifest modified the directory", version)
		}
	}
}

// TestOpenRefusesOldGeneration: segment files of an earlier detector
// generation (HBD4: every index level under the leaf's γ, which this build's
// steering-level factory would refuse block by block; HBD5: a header with the
// PBE-1 fields this build does not read; HBD6: a header with the event-index
// flag; HBD7: cell blocks of float64 lines; HBD8: cell blocks whose records
// follow the rule of 32-bit fields; HBD9: cell blocks whose records store
// every slope in 4 bytes) are whole files, not damage, and
// so is a manifest of the previous generation (HBM3, with the same flag).
// Open refuses the directory by the generation's name and leaves it exactly as it was — nothing quarantined,
// nothing moved, the manifest untouched — even behind a segment that really
// is damaged.
func TestOpenRefusesOldGeneration(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(8)
	cfg.CompactFanout = -1 // a background merge of the four seals would leave too few files
	s := mustOpen(t, dir, cfg)
	appendN(t, s, 32, 4, 0, 1)
	mustClose(t, s)
	segs, err := filepath.Glob(filepath.Join(dir, segFilePrefix+"*"+segFileSuffix))
	if err != nil || len(segs) < 3 {
		t.Fatalf("fixture: %d segment files (%v), want at least 3", len(segs), err)
	}
	reseal := func(path string, mutate func(body []byte)) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		body := data[:len(data)-4]
		mutate(body)
		binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crcTable))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The first file is damaged the ordinary way; alone it would be quarantined.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, ManifestName)
	refused := func(what, want string, wantErr error) {
		t.Helper()
		before := dirContents(t, dir)
		sum := sha256.Sum256([]byte(before[ManifestName]))
		for _, cfg := range []Config{{}, testConfig(8)} {
			re, err := Open(dir, cfg)
			if err == nil {
				mustClose(t, re)
				t.Fatalf("a store of %s opened", what)
			}
			if (wantErr != nil && !errors.Is(err, wantErr)) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s refused without naming the generation: %v", what, err)
			}
			after := dirContents(t, dir)
			if !reflect.DeepEqual(before, after) || sha256.Sum256([]byte(after[ManifestName])) != sum {
				t.Fatalf("refusing %s modified the directory", what)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refusing %s made a quarantine directory: %v", what, err)
			}
		}
	}
	// A log of the previous generation: refused before the damaged file is
	// quarantined or the log is rotated away with its acked elements.
	logs, err := filepath.Glob(filepath.Join(dir, walFilePrefix+"*"+walFileSuffix))
	if err != nil || len(logs) != 1 {
		t.Fatalf("fixture: wal files %v (%v), want 1", logs, err)
	}
	log, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logs[0], append(slices.Clone(hbw1Magic), log[len(walMagic):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	refused("an HBW1 log", "unsupported write-ahead log format HBW1 (this build reads HBW2 only)", histburst.ErrUnsupportedFormat)
	if err := os.WriteFile(logs[0], log, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, old := range []byte{4, 5, 6, 7, 8, 9} {
		for _, path := range segs[1:] {
			reseal(path, func(body []byte) {
				if string(body[:4]) != "\x04HBD" {
					t.Fatalf("fixture: %s starts with %q", path, body[:5])
				}
				body[4] = old
			})
		}
		refused(fmt.Sprintf("HBD%d segment files", old),
			fmt.Sprintf("unsupported detector format HBD%d (this build reads HBD10 only)", old), histburst.ErrUnsupportedFormat)
	}

	// The previous manifest generation, over the files it was written with:
	// refused before any of them is read.
	man, err := LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, encodeLegacyManifest(man, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	refused("an HBM3 manifest", "unsupported manifest format HBM3 (this build reads HBM4 only)", nil)
}

// TestStoreDirectoryHoldsOneFormat drives every writer the store has — seal,
// compaction, decay, quarantine, checkpoint — and then checks that each
// manifest and sketch file in the directory tree carries the one current
// magic: the store writes, and leaves behind, exactly one format.
func TestStoreDirectoryHoldsOneFormat(t *testing.T) {
	dir := t.TempDir()
	s := openStepped(t, dir, decayConfig(8))
	appendN(t, s, 400, 4, 0, 3600) // ~16 days: seals, compactions, decay
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	settle(t, s)
	segs := s.Segments()
	if !slices.ContainsFunc(segs, func(g SegmentInfo) bool { return g.Tier >= 1 }) {
		t.Fatalf("nothing decayed: %+v", segs)
	}
	mustClose(t, s)

	// Rot the newest segment; the reopen quarantines it, and one more append
	// and checkpoint write a fresh segment and manifest on top.
	victim := filepath.Join(dir, segs[len(segs)-1].File)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Config{})
	if h := s.Health(); h.Quarantined != 1 {
		t.Fatalf("quarantined %d segments, want 1", h.Quarantined)
	}
	if err := s.Append(1, s.Frontier()+1); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	decayed := false
	for _, g := range s.Segments() {
		decayed = decayed || g.Tier > 0
	}
	if !decayed {
		t.Fatal("fixture holds no decayed segment")
	}
	mustClose(t, s)

	// Magics are binenc blobs: a length byte, then the four magic bytes.
	magics := map[string]string{".hbm": "\x04HBM\x04", ".hbsk": "\x04HBD\x0a"}
	seen := make(map[string]int)
	for name, content := range dirContents(t, dir) {
		magic, ok := magics[filepath.Ext(name)]
		if !ok {
			continue
		}
		if !strings.HasPrefix(content, magic) {
			t.Errorf("%s starts with %q, want %q", name, content[:min(5, len(content))], magic)
		}
		seen[filepath.Join(filepath.Dir(name), "*"+filepath.Ext(name))]++
	}
	for _, kind := range []string{"*.hbm", "*.hbsk", filepath.Join(quarantineDir, "*.hbsk")} {
		if seen[kind] == 0 {
			t.Errorf("directory holds no %s file; saw %v", kind, seen)
		}
	}
}

func TestManifestRejectsOutOfOrderSegments(t *testing.T) {
	m := &Manifest{
		NextID: 3,
		Params: histburst.SketchParams{K: 64, Seed: 1, D: 3, W: 32, Gamma: 2},
		Segments: []SegmentMeta{
			{ID: 1, File: segFileName(1), Start: 10, End: 20, MinT: 10, MaxT: 20, Elements: 5},
			{ID: 2, File: segFileName(2), Start: 5, End: 19, MinT: 5, MaxT: 19, Elements: 5},
		},
	}
	if _, err := DecodeManifest(m.Encode()); err == nil {
		t.Fatal("time-disordered segments accepted")
	}
	// Equal boundaries are legal (forced seals produce them).
	m.Segments[1] = SegmentMeta{ID: 2, File: segFileName(2), Start: 20, End: 30, MinT: 20, MaxT: 30, Elements: 5}
	if _, err := DecodeManifest(m.Encode()); err != nil {
		t.Fatalf("equal-boundary segments rejected: %v", err)
	}
}

func TestSegmentsEndpointShape(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testConfig(8))
	defer mustClose(t, s)
	appendN(t, s, 20, 4, 0, 1)
	if err := s.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	for _, g := range s.Segments() {
		if g.File == "" || g.Bytes <= 0 {
			t.Fatalf("segment info incomplete: %+v", g)
		}
		if fmt.Sprintf("%s%016d%s", segFilePrefix, g.ID, segFileSuffix) != g.File {
			t.Fatalf("file name %q does not match id %d", g.File, g.ID)
		}
	}
}
