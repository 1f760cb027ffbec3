package segstore

import (
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"histburst"
	"histburst/internal/binenc"
	"histburst/internal/faultio"
	"histburst/internal/stream"
)

// walFileNames lists the WAL files in dir, sorted.
func walFileNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, walFilePrefix) && strings.HasSuffix(n, walFileSuffix) {
			names = append(names, n)
		}
	}
	return names
}

// buildWALFixture opens a never-sealing store, appends batches×batchSize
// elements through the WAL'd batch path, and captures the live log bytes
// (while the store is still open — closing would seal and rotate).
func buildWALFixture(t *testing.T, batches, batchSize int) (walName string, walData []byte) {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(-1))
	tm := int64(0)
	for b := 0; b < batches; b++ {
		elems := make(stream.Stream, batchSize)
		for i := range elems {
			elems[i] = stream.Element{Event: uint64(i % 4), Time: tm}
			tm++
		}
		if _, _, err := s.AppendBatch(elems); err != nil {
			t.Fatal(err)
		}
	}
	names := walFileNames(t, dir)
	if len(names) != 1 {
		t.Fatalf("fixture has %d wal files, want 1", len(names))
	}
	walName = names[0]
	walData, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)
	return walName, walData
}

// walFrameEnds returns the file offset just past each frame of a healthy
// log image, by walking the length prefixes — independent of the parser
// under test.
func walFrameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := len(walMagic)
	for off < len(data) {
		if off+walFrameHeader > len(data) {
			t.Fatalf("fixture log torn at %d", off)
		}
		ln := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += walFrameHeader + ln
		if off > len(data) {
			t.Fatalf("fixture log torn at %d", off)
		}
		ends = append(ends, off)
	}
	return ends
}

// wholeFramesBefore counts the frames that end at or before offset.
func wholeFramesBefore(ends []int, offset int) int64 {
	n := int64(0)
	for _, e := range ends {
		if e <= offset {
			n++
		}
	}
	return n
}

func TestWALCrashAtEveryByteRecoversAckedPrefix(t *testing.T) {
	const batches, batchSize = 8, 5
	walName, walData := buildWALFixture(t, batches, batchSize)
	ends := walFrameEnds(t, walData)
	if len(ends) != batches {
		t.Fatalf("fixture log holds %d frames, want %d", len(ends), batches)
	}
	// A crash truncating the log at any byte: recovery must land on exactly
	// the whole frames before the cut — every complete batch, never part of
	// one.
	for step := 0; step < faultio.CrashPrefixSteps(walData); step++ {
		d := t.TempDir()
		if _, err := faultio.CrashAppendWrite(d, walName, walData, step); err != nil {
			t.Fatal(err)
		}
		s, err := Open(d, testConfig(-1))
		if err != nil {
			t.Fatalf("step %d: recovery failed: %v", step, err)
		}
		want := wholeFramesBefore(ends, step) * batchSize
		if got := s.N(); got != want {
			t.Fatalf("step %d: recovered N=%d, want %d", step, got, want)
		}
		mustClose(t, s)
	}
}

func TestWALBitFlipAtEveryByteRecoversCleanPrefix(t *testing.T) {
	const batches, batchSize = 8, 5
	walName, walData := buildWALFixture(t, batches, batchSize)
	ends := walFrameEnds(t, walData)
	// A flipped bit anywhere in the log: the CRC kills the frame holding
	// it, the parse stops there (everything after is unanchored), and Open
	// still succeeds with the clean prefix.
	for off := 0; off < len(walData); off++ {
		data := append([]byte(nil), walData...)
		data[off] ^= 0x10
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(d, testConfig(-1))
		if err != nil {
			t.Fatalf("flip at %d: recovery failed: %v", off, err)
		}
		want := wholeFramesBefore(ends, off) * batchSize
		if got := s.N(); got != want {
			t.Fatalf("flip at %d: recovered N=%d, want %d", off, got, want)
		}
		mustClose(t, s)
	}
}

func TestWALRecoversUnsealedAppendsAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(-1))
	last := appendN(t, s, 25, 4, 0, 1)
	// Simulate a crash: snapshot the directory while the store is live
	// (nothing sealed, so the elements exist only in WAL + memory), then
	// recover from the snapshot.
	d := cloneDir(t, dir)
	mustClose(t, s)

	r := mustOpen(t, d, testConfig(-1))
	if got := r.N(); got != 25 {
		t.Fatalf("recovered N=%d, want 25", got)
	}
	if got := r.Frontier(); got != last {
		t.Fatalf("recovered frontier=%d, want %d", got, last)
	}
	// The recovered store keeps accepting and stays consistent.
	if err := r.Append(1, last+1); err != nil {
		t.Fatal(err)
	}
	mustClose(t, r)

	// Double recovery: re-open the same directory again (rotation rewrote
	// the log); nothing may be lost or duplicated.
	r2 := mustOpen(t, d, testConfig(-1))
	if got := r2.N(); got != 26 {
		t.Fatalf("second recovery N=%d, want 26", got)
	}
	mustClose(t, r2)
}

func TestWALSurvivesCrashUnderEveryPolicy(t *testing.T) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncInterval, WALSyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(-1)
			cfg.WALSync = policy
			s := mustOpen(t, dir, cfg)
			appendN(t, s, 10, 3, 0, 1)
			// A process crash keeps the page cache: everything written —
			// synced or not — is in the snapshot. (Power-loss semantics
			// differ per policy; see the README table.)
			d := cloneDir(t, dir)
			mustClose(t, s)
			r := mustOpen(t, d, cfg)
			if got := r.N(); got != 10 {
				t.Fatalf("recovered N=%d, want 10", got)
			}
			mustClose(t, r)
		})
	}
}

func TestWALRotationKeepsLogBounded(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(8))
	appendN(t, s, 64, 4, 0, 1) // 8 seals' worth, one record each
	if err := s.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	st := s.Health().WAL
	if !st.Enabled {
		t.Fatal("WAL not enabled on a persistent store")
	}
	// After the checkpoint every element is sealed except (at most) the
	// kept tail; rotation rewrote the log down to that.
	if st.Records > 1 {
		t.Fatalf("rotated log holds %d records, want <= 1 (the unsealed baseline)", st.Records)
	}
	if names := walFileNames(t, dir); len(names) != 1 {
		t.Fatalf("%d wal files after rotation, want 1", len(names))
	}
	mustClose(t, s)
}

func TestWALDisableLeavesNoLog(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(-1)
	cfg.DisableWAL = true
	s := mustOpen(t, dir, cfg)
	appendN(t, s, 10, 3, 0, 1)
	if s.Health().WAL.Enabled {
		t.Fatal("WAL reported enabled despite DisableWAL")
	}
	if names := walFileNames(t, dir); len(names) != 0 {
		t.Fatalf("wal files exist despite DisableWAL: %v", names)
	}
	// Checkpoint-grained durability: a crash drops the unsealed head.
	d := cloneDir(t, dir)
	mustClose(t, s)
	r := mustOpen(t, d, cfg)
	if got := r.N(); got != 0 {
		t.Fatalf("recovered N=%d, want 0 without a WAL", got)
	}
	mustClose(t, r)
}

func TestWALBootstrapKeepsPositionsAligned(t *testing.T) {
	det, err := histburst.New(64, histburst.WithSeed(7), histburst.WithPBE2(2), histburst.WithSketchDims(3, 32))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		det.Append(uint64(i%5), int64(10+i))
	}
	det.Finish()

	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(-1))
	if err := s.Bootstrap(det); err != nil {
		t.Fatal(err)
	}
	// Bootstrap moved the durable position to 30; the rotation inside it
	// must have realigned the log so these WAL'd appends replay correctly.
	appendN(t, s, 5, 3, 100, 1)
	d := cloneDir(t, dir)
	mustClose(t, s)

	r := mustOpen(t, d, testConfig(-1))
	if got := r.N(); got != 35 {
		t.Fatalf("recovered N=%d, want 35", got)
	}
	mustClose(t, r)
}

// TestWALBaselineWinsOverTornOlderLog: a rotation baseline restates the head
// in merged order — equal timestamps by event id — while the log it
// supersedes holds them in arrival order. If that older file survives the
// rotation with a torn tail, replay must take the baseline for every
// position it covers: stitching the older file's prefix to the baseline's
// rest by position would replay one id twice and drop another.
func TestWALBaselineWinsOverTornOlderLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(-1))
	ids := []uint64{5, 3, 9, 1}
	for _, e := range ids { // one run at t = 100, one frame per element
		if _, _, err := s.AppendBatch(stream.Stream{{Event: e, Time: 100}}); err != nil {
			t.Fatal(err)
		}
	}
	older := walFileNames(t, dir)
	if len(older) != 1 {
		t.Fatalf("%d wal files before rotation, want 1", len(older))
	}
	data, err := os.ReadFile(filepath.Join(dir, older[0]))
	if err != nil {
		t.Fatal(err)
	}
	ends := walFrameEnds(t, data)
	if err := s.rotateWAL(); err != nil {
		t.Fatal(err)
	}
	crashed := cloneDir(t, dir)
	mustClose(t, s)
	// The older file survives the rotation holding its first frame only.
	if err := os.WriteFile(filepath.Join(crashed, older[0]), data[:ends[0]], 0o644); err != nil {
		t.Fatal(err)
	}
	if names := walFileNames(t, crashed); len(names) != 2 {
		t.Fatalf("crashed dir holds wal files %v, want the torn older one and the baseline", names)
	}

	r := mustOpen(t, crashed, testConfig(-1))
	defer mustClose(t, r)
	if got := r.N(); got != int64(len(ids)) {
		t.Fatalf("recovered N=%d, want %d", got, len(ids))
	}
	head := r.view.Load().head
	for _, e := range ids {
		if got := head.arrivals(e); len(got) != 1 || got[0] != 100 {
			t.Fatalf("event %d recovered arrivals %v, want [100]", e, got)
		}
	}
}

func TestParseWALSyncPolicy(t *testing.T) {
	for _, want := range []WALSyncPolicy{WALSyncAlways, WALSyncInterval, WALSyncOff} {
		got, err := ParseWALSyncPolicy(want.String())
		if err != nil || got != want {
			t.Fatalf("round trip %v: got %v, %v", want, got, err)
		}
	}
	if _, err := ParseWALSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// walSeedLog is an HBW2 log of two records.
func walSeedLog() []byte {
	a := stream.Stream{{Event: 1, Time: 5}, {Event: 2, Time: 9}, {Event: 300, Time: 9}}
	b := stream.Stream{{Event: 3, Time: 12}}
	return slices.Concat(walMagic, encodeWALRecord(0, a), encodeWALRecord(3, b))
}

func FuzzWALReplay(f *testing.F) {
	// Seeds: an empty log, a healthy two-record log, the same frames behind
	// the previous generation's magic (no records: Open refuses such a log
	// before it parses it), and torn ones.
	f.Add([]byte{})
	f.Add(slices.Clone(walMagic))
	hbw2 := walSeedLog()
	hbw1 := append(slices.Clone(hbw1Magic), hbw2[len(walMagic):]...)
	for _, data := range [][]byte{hbw2, hbw1} {
		f.Add(data)
		f.Add(data[:len(data)-3])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The parser must never panic, and whatever it accepts must obey
		// the record invariants the replay path relies on.
		recs, clean := parseWALFile(data)
		if clean && len(data) > 0 {
			if len(data) < len(walMagic) {
				t.Fatalf("clean parse of %d bytes (shorter than the magic)", len(data))
			}
		}
		for _, rec := range recs {
			if rec.startN < 0 {
				t.Fatalf("negative record position %d", rec.startN)
			}
		}
		// Round trip: the accepted records, re-encoded, must parse back to
		// the same positions and elements.
		out := slices.Clone(walMagic)
		for _, rec := range recs {
			out = append(out, encodeWALRecord(rec.startN, rec.elems)...)
		}
		recs2, clean2 := parseWALFile(out)
		if !clean2 || len(recs2) != len(recs) {
			t.Fatalf("re-encoded log parsed to %d records (clean=%v), want %d", len(recs2), clean2, len(recs))
		}
		for i, rec := range recs {
			if recs2[i].startN != rec.startN || !slices.Equal(recs2[i].elems, rec.elems) {
				t.Fatalf("record %d re-encoded as %d %v, want %d %v", i, recs2[i].startN, recs2[i].elems, rec.startN, rec.elems)
			}
		}
	})
}

func FuzzWALRecordDecode(f *testing.F) {
	f.Add(walSeedLog()[len(walMagic)+walFrameHeader:])
	f.Add(encodeWALRecord(7, stream.Stream{{Event: math.MaxUint64, Time: math.MinInt64}, {Event: 0, Time: math.MaxInt64}})[walFrameHeader:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return
		}
		if rec.startN < 0 {
			t.Fatalf("negative position decoded: %d", rec.startN)
		}
		for i := 1; i < len(rec.elems); i++ {
			if rec.elems[i].Time < rec.elems[i-1].Time {
				t.Fatalf("time decreases at element %d: %d after %d", i, rec.elems[i].Time, rec.elems[i-1].Time)
			}
		}
		if len(rec.elems) > 0 {
			kID, kDT, bitsLeft := walRecordOrders(t, payload)
			if need := walMinBits(len(rec.elems), kID, kDT); need > bitsLeft {
				t.Fatalf("%d elements at orders %d/%d need %d bits, the payload holds %d", len(rec.elems), kID, kDT, need, bitsLeft)
			}
		}
	})
}

// walRecordOrders reads an HBW2 payload's header on its own: the code
// orders, and the bits left after them.
func walRecordOrders(t *testing.T, payload []byte) (kID, kDT uint, bitsLeft uint64) {
	t.Helper()
	dec := binenc.NewReader(payload)
	dec.Uvarint()
	dec.Uvarint()
	dec.Varint()
	if dec.Err() != nil || dec.Remaining() < 2 {
		t.Fatalf("decoded payload has a short header: %x", payload)
	}
	orders := payload[len(payload)-dec.Remaining():]
	kID = uint(orders[0] >> 2)
	kDT = uint(orders[0]&3)<<4 | uint(orders[1]>>4)
	return kID, kDT, 8*uint64(len(orders)) - 2*walOrderBits
}

// TestWALRecordGolden pins the HBW2 record bytes — duplicate timestamps,
// Unix-second and Unix-millisecond origins, ids up to 2⁶⁴ − 1 and a span
// wider than 2⁶³ — and each decodes back.
func TestWALRecordGolden(t *testing.T) {
	for _, tc := range []struct {
		s   stream.Stream
		hex string
	}{
		{goldenRun(3, -10, 1, 40, 1<<40, 100, 2, 250), "14000000b08372a0d2090413086fcafc00000000020000000008d6c0"},
		{goldenRun(5, 7, 5, 7, 9, 7, 5, 8), "09000000386271a0d209040e0407bcb4e0"},
		{goldenRun(1, 1_700_000_000, 2, 1_700_000_003, 1, 1_700_086_400), "0f00000043638d66d2090380c49fd50c042fa00015181c"},
		{goldenRun(0, 1_700_000_000_000, 300, 1_700_000_000_250, 70_000, 1_700_086_400_000), "17000000cd8d4c2ad2090380a0abfef9621c880fd35800005265c0600447c0"},
		{goldenRun(1, math.MinInt64+1, 2, math.MaxInt64), "18000000b4c72651d20902fdffffffffffffffff0103f4bfffffffffffffff30"},
		{goldenRun(-1, 0, 0, 0, -1, 1), "1f0000006b52dd1fd2090300fc05ffffffffffffffff000000000000000097fffffffffffffff0"},
	} {
		frame := encodeWALRecord(1234, tc.s)
		if got := hex.EncodeToString(frame); got != tc.hex {
			t.Errorf("encodeWALRecord(%v) = %s, want %s", tc.s, got, tc.hex)
		}
		if rec, err := decodeWALRecord(frame[walFrameHeader:]); err != nil || rec.startN != 1234 || !slices.Equal(rec.elems, tc.s) {
			t.Errorf("decodeWALRecord = %+v (%v), want %v at 1234", rec, err, tc.s)
		}
	}
}

// goldenRun builds a stream from (event, time) pairs.
func goldenRun(pairs ...int64) stream.Stream {
	s := make(stream.Stream, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		s = append(s, stream.Element{Event: uint64(pairs[i]), Time: pairs[i+1]})
	}
	return s
}

// TestWALSplitsRecordsAtTheBound: a rotation baseline, and a commit, longer
// than the record bound are written as several records, each of which the
// decoder takes. The path the baseline takes in a server that never seals:
// a crash, then an Open that replays many small frames and rotates them
// into one baseline, then a second crash.
func TestWALSplitsRecordsAtTheBound(t *testing.T) {
	defer func(n int) { maxWALRecordElems = n }(maxWALRecordElems)
	maxWALRecordElems = 8

	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig(-1))
	last := appendN(t, s, 30, 4, 0, 1) // 30 one-element records
	crashed := cloneDir(t, dir)
	mustClose(t, s)

	r := mustOpen(t, crashed, testConfig(-1)) // replays, rotates 30 elements
	if got := r.Health().WAL.Records; got != 4 {
		t.Fatalf("baseline of 30 elements holds %d records, want 4 of at most 8", got)
	}
	batch := make(stream.Stream, 20)
	for i := range batch {
		batch[i] = stream.Element{Event: uint64(i), Time: last + 1 + int64(i)}
	}
	if _, _, err := r.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := r.Health().WAL.Records; got != 4+3 {
		t.Fatalf("a 20-element commit left %d records, want 4 + 3", got)
	}
	again := cloneDir(t, crashed)
	mustClose(t, r)

	r2 := mustOpen(t, again, testConfig(-1))
	defer mustClose(t, r2)
	if got := r2.N(); got != 50 {
		t.Fatalf("second recovery N=%d, want 50", got)
	}
	if got, want := r2.Frontier(), last+20; got != want {
		t.Fatalf("second recovery frontier=%d, want %d", got, want)
	}
}

// TestWALBytesPerElement is the log's size on the benchmark's stream: the
// 53 760 olympicrio elements http_mixed commits 64 at a time before its
// first seal, and the same elements in wire_ingest's 4096-element bulk
// commits. HBW1 took 2.528 and 2.302 B an element.
func TestWALBytesPerElement(t *testing.T) {
	elems := rioHeadElems()[:53_760]
	for _, tc := range []struct {
		batch int
		max   float64
	}{{64, 1.75}, {4096, 1.50}} {
		cfg := testConfig(-1)
		cfg.WALSync = WALSyncOff
		s := mustOpen(t, t.TempDir(), cfg)
		for i := 0; i < len(elems); i += tc.batch {
			if _, _, err := s.AppendBatch(elems[i:min(i+tc.batch, len(elems))]); err != nil {
				t.Fatal(err)
			}
		}
		perElem := float64(s.Health().WAL.Bytes) / float64(len(elems))
		t.Logf("%d a commit: %d B, %.3f B an element", tc.batch, s.Health().WAL.Bytes, perElem)
		if perElem > tc.max {
			t.Errorf("%d a commit: the log takes %.3f B an element, want ≤ %.2f", tc.batch, perElem, tc.max)
		}
		mustClose(t, s)
	}
}
