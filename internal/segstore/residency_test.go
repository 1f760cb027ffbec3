package segstore

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"histburst"
	"histburst/internal/pbe2/pbe2test"
)

// Residency is a property of what queries touch: Open verifies every segment
// file and decodes none, a query decodes exactly the segments its window
// overlaps, and nothing that only describes a segment decodes anything. The
// tests below are deterministic — they count resident segments and decode log
// lines, never time.

const (
	coldOrigin = int64(1_700_000_000) // epoch-scale, per ROADMAP's PR 21 note
	coldDay    = int64(86_400)
)

// coldConfig keeps every background loop off so the layout and the resident
// count move only when the test moves them.
func coldConfig() Config {
	cfg := testConfig(-1)
	cfg.CompactFanout = -1
	cfg.ScrubInterval = -1
	cfg.DisableWAL = true // several tests open one directory twice
	return cfg
}

// buildColdDir writes a store of days one-day segments (perDay elements
// each, evenly spaced from coldOrigin) and closes it. Eight ids take turns in
// runs of four arrivals, so each has several short bursts a day and its leaf
// cell needs more than one PBE-2 segment — TestQuarantineUnsearchableCell
// forges one of those. It returns the directory and the newest timestamp.
func buildColdDir(tb testing.TB, days, perDay int) (dir string, frontier int64) {
	tb.Helper()
	dir = tb.TempDir()
	s, err := Open(dir, coldConfig())
	if err != nil {
		tb.Fatal(err)
	}
	step := coldDay / int64(perDay)
	for d := 0; d < days; d++ {
		for i := 0; i < perDay; i++ {
			frontier = coldOrigin + int64(d)*coldDay + int64(i)*step
			if err := s.Append(uint64(i/4)%8, frontier); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.Checkpoint(true); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir, frontier
}

// residentIDs lists the resident segments of the current view.
func residentIDs(s *Store) []uint64 {
	var ids []uint64
	for _, g := range s.Segments() {
		if g.Resident {
			ids = append(ids, g.ID)
		}
	}
	return ids
}

func TestOpenLeavesSegmentsCold(t *testing.T) {
	dir, frontier := buildColdDir(t, 13, 48)
	// Stepped, with compaction and one decay tier on, so the pickers below
	// have work to find while nothing runs them.
	cfg := coldConfig()
	cfg.CompactFanout = 4
	cfg.DecayTiers = []DecayTier{{Age: coldDay, Gamma: 8, W: 8, Res: 3600}}
	s := openStepped(t, dir, cfg)
	defer mustClose(t, s)

	sn := s.Snapshot()
	if got := len(sn.Segments()); got != 13 {
		t.Fatalf("fixture has %d segments, want 13", got)
	}
	if got := sn.Resident(); got != 0 {
		t.Fatalf("%d of 13 segments resident after Open, want 0", got)
	}
	// Unresident, a segment reports the verified file bytes it holds.
	onDisk := 0
	for _, g := range sn.Segments() {
		fi, err := os.Stat(filepath.Join(dir, g.File))
		if err != nil {
			t.Fatal(err)
		}
		if g.Bytes != int(fi.Size()) {
			t.Fatalf("cold segment %d reports %d bytes, its file holds %d", g.ID, g.Bytes, fi.Size())
		}
		onDisk += g.Bytes
	}
	if sn.Bytes() != onDisk {
		t.Fatalf("cold store reports %d bytes, its segment files hold %d", sn.Bytes(), onDisk)
	}

	// Everything that only describes the store leaves it cold: stats, the
	// tier table, the envelope, a scrub pass, a compactor and a decay pick.
	sn.Tiers()
	sn.Envelope(frontier)
	sn.N()
	s.Health()
	if err := s.scrubOnce(); err != nil {
		t.Fatal(err)
	}
	if runs := s.pickRuns(sn.v.segs); len(runs) == 0 {
		t.Fatal("fixture gave the compactor nothing to pick")
	}
	if runs, _ := s.pickDecayRuns(sn.v.segs, frontier); len(runs) == 0 {
		t.Fatal("fixture gave the decayer nothing to pick")
	}
	if got := sn.Resident(); got != 0 {
		t.Fatalf("describing the store made %d segments resident", got)
	}

	// One POINT at the frontier with τ = one day touches exactly the
	// segments overlapping (t − 2τ, t].
	if _, err := sn.Burstiness(3, frontier, coldDay); err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for _, g := range sn.Segments() {
		if g.Start <= frontier && g.End > frontier-2*coldDay {
			want = append(want, g.ID)
		}
	}
	got := residentIDs(s)
	if len(want) == 0 || len(want) > 3 {
		t.Fatalf("fixture: %d segments overlap the window, want 1..3", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("resident after one POINT: %v, want exactly the window's %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resident after one POINT: %v, want exactly the window's %v", got, want)
		}
	}
	// Resident, a segment reports its decoded summary.
	for _, g := range sn.v.segs {
		if g.resident() && g.bytes() != g.detector().Bytes() {
			t.Fatalf("resident segment %d reports %d bytes, its summary holds %d", g.meta.ID, g.bytes(), g.detector().Bytes())
		}
	}
	// BURSTY-EVENT and TopBursty stay inside the same window.
	if _, err := sn.BurstyEvents(frontier, 1, coldDay); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.TopBursty(frontier, 3, coldDay); err != nil {
		t.Fatal(err)
	}
	if got := sn.Resident(); got != len(want) {
		t.Fatalf("BURSTY-EVENT and TopBursty at the frontier left %d resident, want %d", got, len(want))
	}
}

// TestColdAnswersMatchWarm pins a reopened store bit-identical to the store
// that wrote it: laziness changes when a segment is decoded, not what it says.
func TestColdAnswersMatchWarm(t *testing.T) {
	dir, frontier := buildColdDir(t, 6, 96)
	warm := mustOpen(t, dir, coldConfig())
	wsn := warm.Snapshot()
	for _, g := range wsn.v.segs {
		g.detector()
	}
	cold := mustOpen(t, dir, coldConfig())
	defer mustClose(t, cold)
	defer mustClose(t, warm)
	csn := cold.Snapshot()
	for e := uint64(0); e < 16; e++ {
		for _, tau := range []int64{600, coldDay, 3 * coldDay} {
			for q := coldOrigin - 10; q <= frontier+coldDay; q += 7919 {
				w, _ := wsn.Burstiness(e, q, tau)
				c, _ := csn.Burstiness(e, q, tau)
				if math.Float64bits(w) != math.Float64bits(c) {
					t.Fatalf("b(%d, %d, τ=%d): cold %v, warm %v", e, q, tau, c, w)
				}
			}
		}
	}
}

// TestConcurrentFirstTouchDecodesOnce races 32 goroutines at one cold
// segment: one of them decodes, the rest wait and share the result.
func TestConcurrentFirstTouchDecodesOnce(t *testing.T) {
	dir, frontier := buildColdDir(t, 3, 512)
	var mu sync.Mutex
	decodes := 0
	cfg := coldConfig()
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(format, "decoded on first touch") {
			mu.Lock()
			decodes++
			mu.Unlock()
		}
	}
	s := mustOpen(t, dir, cfg)
	defer mustClose(t, s)
	sn := s.Snapshot()
	want, _ := sn.Burstiness(3, frontier, 600) // touches the newest segment only
	if got := sn.Resident(); got != 1 {
		t.Fatalf("warm-up POINT left %d resident, want 1", got)
	}

	q := coldOrigin + coldDay/2 // inside the oldest, still cold, segment
	start := make(chan struct{})
	answers := make([]float64, 32)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			answers[i], _ = sn.Burstiness(3, q, 600)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, a := range answers {
		if a != answers[0] {
			t.Fatalf("goroutine %d answered %v, goroutine 0 %v", i, a, answers[0])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if decodes != 2 {
		t.Fatalf("%d first-touch decodes logged, want 2 (the warm-up's and one shared by 32 goroutines)", decodes)
	}
	if got := sn.Resident(); got != 2 {
		t.Fatalf("%d segments resident, want 2", got)
	}
	if again, _ := sn.Burstiness(3, frontier, 600); again != want {
		t.Fatalf("frontier answer moved: %v then %v", want, again)
	}
}

// TestQuarantineOnFirstTouch plants a file Open cannot fault — valid magic,
// header and checksum over a summary that does not decode. The first query
// to touch it is answered without it and quarantines it; the envelope then
// reports the hole.
func TestQuarantineOnFirstTouch(t *testing.T) {
	quarantineOnFirstTouch(t, func(body []byte) {
		for i := len(body) / 2; i < len(body); i++ {
			body[i] = 0xFF // varint continuation bytes without end
		}
	})
}

// TestQuarantineUnsearchableCell is the same story for damage that parses:
// one PBE-2 cell with a segment whose slope is not a number, under a
// recomputed checksum. The cell decoder refuses it, so the segment is served
// around and quarantined instead of evaluated.
func TestQuarantineUnsearchableCell(t *testing.T) {
	quarantineOnFirstTouch(t, func(body []byte) {
		if !pbe2test.Poison(body) {
			t.Fatal("fixture: no collision-free level with a PBE-2 cell in the segment file")
		}
	})
}

// quarantineOnFirstTouch plants damage in one segment file's body, reseals
// its checksum, and follows the store from Open to the durable quarantine.
func quarantineOnFirstTouch(t *testing.T, damage func(body []byte)) {
	dir, frontier := buildColdDir(t, 4, 64)
	ref := mustOpen(t, dir, coldConfig())
	victim := ref.Segments()[1]
	mustClose(t, ref)

	path := filepath.Join(dir, victim.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := data[:len(data)-4]
	damage(body)
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crcTable))
	if _, err := histburst.Inspect(data); err != nil {
		t.Fatalf("fixture: the verifier rejects the planted file: %v", err)
	}
	if _, err := histburst.Decode(data); err == nil {
		t.Fatal("fixture: the planted file decodes")
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir, coldConfig())
	if h := s.Health(); h.Quarantined != 0 {
		t.Fatalf("Open quarantined %d segments; the planted damage is beyond its reach", h.Quarantined)
	}
	if err := s.scrubOnce(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Quarantined != 0 {
		t.Fatal("a scrub pass quarantined a file whose bytes verify")
	}
	sn := s.Snapshot()
	if env := sn.Envelope(frontier); env.Degraded {
		t.Fatalf("envelope degraded before anything touched the damage: %+v", env)
	}

	// A query whose window covers the victim: served around it.
	q := victim.End
	got, err := sn.Burstiness(3, q, coldDay)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.Quarantined != 1 || h.QuarantinedElements != victim.Elements {
		t.Fatalf("after first touch: health %+v, want segment %d quarantined", h, victim.ID)
	}
	after := s.Snapshot()
	if env := after.Envelope(q); !env.Degraded || env.MissingElements != victim.Elements {
		t.Fatalf("envelope after quarantine %+v, want degraded by %d elements", env, victim.Elements)
	}
	if again, _ := after.Burstiness(3, q, coldDay); again != got {
		t.Fatalf("answer around the damage moved once it was quarantined: %v then %v", got, again)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, victim.File)); err != nil {
		t.Fatalf("evidence not moved to quarantine/: %v", err)
	}
	// Every other query class on the snapshot that still lists the damaged
	// segment answers too.
	if _, err := sn.BurstyTimes(3, 1, coldDay); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.BurstyEvents(q, 1, coldDay); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.TopBursty(q, 3, coldDay); err != nil {
		t.Fatal(err)
	}
	sn.CumulativeFrequency(3, frontier)

	// The quarantine is durable.
	mustClose(t, s)
	re := mustOpen(t, dir, coldConfig())
	defer mustClose(t, re)
	if h := re.Health(); h.Quarantined != 1 {
		t.Fatalf("reopen sees %d quarantined segments, want 1", h.Quarantined)
	}
}

// TestColdSegmentOutlivesItsFile: a snapshot pins its segments, and a cold
// segment holds its verified bytes, so it answers after a compaction swap
// deleted its file. The replacement is merged from a warm twin of the same
// directory, so the swap — the compactor's own — removes the files of a run
// nothing in this store has touched.
func TestColdSegmentOutlivesItsFile(t *testing.T) {
	dir, _ := buildColdDir(t, 4, 64)
	warm := mustOpen(t, dir, coldConfig())
	defer mustClose(t, warm)
	q := coldOrigin + coldDay/2
	want, err := warm.Snapshot().Burstiness(3, q, 600)
	if err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir, coldConfig())
	defer mustClose(t, s)
	old := s.Snapshot()
	merged, err := s.mergeRun(warm.Snapshot().v.segs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.swapRun(old.v.segs, merged); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Segments()); got != 1 {
		t.Fatalf("swap left %d segments, want 1", got)
	}
	for _, g := range old.Segments() {
		if _, err := os.Stat(filepath.Join(dir, g.File)); err == nil {
			t.Fatalf("the swap left %s behind", g.File)
		}
	}
	if got := old.Resident(); got != 0 {
		t.Fatalf("fixture: %d segments of the old snapshot resident before its first query", got)
	}
	if got, _ := old.Burstiness(3, q, 600); got != want {
		t.Fatalf("old snapshot answers %v after the swap, want %v", got, want)
	}
	if got, _ := s.Snapshot().Burstiness(3, q, 600); math.Abs(got-want) > 8 {
		t.Fatalf("merged generation answers %v, the run it replaced %v", got, want)
	}
}
