package histburst

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/faultio"
)

// saveHBD1 encodes a detector under the retired v1 magic, v1's way (header,
// summary as one blob, no checksum footer): bytes that Load must refuse by
// version.
func saveHBD1(t testing.TB, d *Detector) []byte {
	t.Helper()
	d.Finish()
	var summary, blob binenc.Writer
	if err := d.tree.Encode(&summary); err != nil {
		t.Fatal(err)
	}
	blob.BytesBlob(summary.Bytes())
	return encodeHeader(d, []byte{'H', 'B', 'D', 1}, blob.Bytes())
}

// saveOld encodes a detector under the magic of an earlier generation, gen
// from 6 on, with the header that generation wrote (encodeHeader) and this
// one's summary, under a valid checksum: bytes that Load must refuse by
// version.
func saveOld(t testing.TB, d *Detector, gen byte) []byte {
	t.Helper()
	d.Finish()
	var summary binenc.Writer
	if err := d.tree.Encode(&summary); err != nil {
		t.Fatal(err)
	}
	return sealed(encodeHeader(d, []byte{'H', 'B', 'D', gen}, summary.Bytes()))
}

// encodeHeader writes d's configuration and counters as Save does, under the
// given magic and ahead of the given summary, without the checksum footer —
// for the files no Save would write. Under a magic before HBD6 the header
// carries the five PBE-1 fields those generations held, as a PBE-2 detector
// wrote them, and under one before HBD7 the event-index flag, unset.
func encodeHeader(d *Detector, magic, summary []byte) []byte {
	var enc binenc.Writer
	enc.BytesBlob(magic)
	enc.Uvarint(d.k)
	c := d.cfg
	enc.Int64(c.seed)
	enc.Uvarint(uint64(c.d))
	enc.Uvarint(uint64(c.w))
	if magic[3] < 6 {
		enc.Bool(false) // PBE-1 cells
		enc.Uvarint(0)  // buffer size
		enc.Uvarint(0)  // η
		enc.Bool(false) // error-cap mode
		enc.Varint(0)   // error cap
	}
	enc.Float64(c.gamma)
	if magic[3] < 7 {
		enc.Bool(false) // event index disabled
	}
	enc.Varint(d.n)
	enc.Varint(d.minT)
	enc.Varint(d.maxT)
	enc.Varint(d.lastT)
	enc.Bool(d.started)
	enc.Varint(d.outOfOrder)
	return append(enc.Bytes(), summary...)
}

func TestDetectorSaveLoad(t *testing.T) {
	data := testStream(21, 64, 3000)
	for _, opts := range [][]Option{
		{WithPBE2(2), WithSketchDims(4, 64)},
		{WithPBE2(3), WithSketchDims(3, 32)},
		{WithErrorBounds(0.05, 0.2)},
	} {
		det, err := New(64, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range data {
			det.Append(el.Event, el.Time)
		}
		var buf bytes.Buffer
		if err := det.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if got.N() != det.N() || got.MaxTime() != det.MaxTime() || got.K() != det.K() || got.Bytes() != det.Bytes() {
			t.Fatalf("metadata mismatch after round trip")
		}
		for e := uint64(0); e < 64; e += 7 {
			for q := int64(0); q <= det.MaxTime(); q += 257 {
				a, err := det.Burstiness(e, q, 60)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := got.Burstiness(e, q, 60)
				if a != b {
					t.Fatalf("burstiness differs at e=%d t=%d: %v vs %v", e, q, a, b)
				}
			}
		}
		// Event queries survive.
		a, err := det.BurstyEvents(1549, 100, 60)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.BurstyEvents(1549, 100, 60)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("BurstyEvents differ: %v vs %v", a, b)
		}
	}
}

func TestDetectorLoadThenAppend(t *testing.T) {
	det, _ := New(16, WithPBE2(2))
	det.Append(3, 100)
	det.Append(3, 200)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got.Append(3, 300)
	got.Finish()
	if got.N() != 3 {
		t.Fatalf("N after resume = %d", got.N())
	}
	if f := got.CumulativeFrequency(3, 300); f != 3 {
		t.Fatalf("F(300) = %v, want 3", f)
	}
	// Out-of-order clamping still tracks across the boundary.
	got.Append(3, 50)
	if got.OutOfOrder() != 1 {
		t.Fatalf("OutOfOrder = %d", got.OutOfOrder())
	}
}

func TestLoadedDetectorMergesWithFresh(t *testing.T) {
	// Regression: WithErrorBounds must resolve into the config so a
	// saved-then-loaded detector still merges with a fresh one built from
	// the same options.
	opts := []Option{WithErrorBounds(0.05, 0.2), WithPBE2(2)}
	a, err := New(16, opts...)
	if err != nil {
		t.Fatal(err)
	}
	a.Append(1, 100)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(16, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b.Append(2, 200)
	if err := loaded.MergeAppend(b); err != nil {
		t.Fatalf("loaded detector refused to merge with fresh twin: %v", err)
	}
	if loaded.N() != 2 {
		t.Fatalf("N = %d", loaded.N())
	}
}

func TestMinTimeTracking(t *testing.T) {
	det, _ := New(8, WithPBE2(2), WithSketchDims(2, 8))
	if det.MinTime() != 0 {
		t.Fatalf("empty MinTime = %d", det.MinTime())
	}
	det.Append(1, 50)
	det.Append(1, 100)
	if det.MinTime() != 50 || det.MaxTime() != 100 {
		t.Fatalf("MinTime=%d MaxTime=%d", det.MinTime(), det.MaxTime())
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MinTime() != 50 {
		t.Fatalf("MinTime after round trip = %d", got.MinTime())
	}
}

func TestLoadRejectsLegacyHBD1(t *testing.T) {
	det, _ := New(64, WithPBE2(2), WithSketchDims(4, 64))
	for _, el := range testStream(7, 64, 2000) {
		det.Append(el.Event, el.Time)
	}
	_, err := Load(bytes.NewReader(saveHBD1(t, det)))
	if err == nil {
		t.Fatal("v1 file (no checksum footer) accepted")
	}
	if !strings.Contains(err.Error(), "unsupported detector format HBD1") {
		t.Fatalf("v1 file refused without naming its version: %v", err)
	}
	// The previous generations, whole and checksummed, are refused by name
	// by the verifier and the decoder alike. An HBD7 or HBD8 file is this
	// one's header under the older version byte, ahead of cell blocks whose
	// records it cannot read.
	for _, gen := range []byte{6, 7, 8} {
		name, old := fmt.Sprintf("HBD%d", gen), saveOld(t, det, gen)
		_, ierr := Inspect(old)
		_, derr := Decode(old)
		for _, err := range []error{ierr, derr} {
			if !errors.Is(err, ErrUnsupportedFormat) || !strings.Contains(err.Error(), "unsupported detector format "+name+" (this build reads HBD9 only)") {
				t.Fatalf("%s file: %v, want a refusal naming %s", name, err, name)
			}
		}
	}
}

func TestChecksumCatchesEveryBitFlip(t *testing.T) {
	det, _ := New(8, WithPBE2(2), WithSketchDims(2, 8))
	det.Append(1, 10)
	det.Append(3, 20)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := 0; i < len(raw); i++ {
		for _, mask := range []byte{0x01, 0x80} {
			flipped := append([]byte(nil), raw...)
			flipped[i] ^= mask
			if _, err := Load(bytes.NewReader(flipped)); err == nil {
				t.Fatalf("bit flip at byte %d mask %02x accepted", i, mask)
			}
		}
	}
}

func TestSaveFileLoadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "det.hbsk")
	det, _ := New(16, WithPBE2(2), WithSketchDims(2, 8))
	det.Append(2, 100)
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 1 {
		t.Fatalf("N = %d", got.N())
	}
	// Overwriting is atomic too: the new state fully replaces the old.
	det.Append(2, 200)
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(path)
	if err != nil || got.N() != 2 {
		t.Fatalf("after overwrite: N=%v err=%v", got.N(), err)
	}
	// No temp debris left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "det.hbsk" {
		t.Fatalf("directory not clean: %v", entries)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.hbsk")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSavePropagatesWriteFaults(t *testing.T) {
	det, _ := New(8, WithPBE2(2), WithSketchDims(2, 8))
	det.Append(1, 10)
	var full bytes.Buffer
	if err := det.Save(&full); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{0, 1, int64(full.Len()) / 2, int64(full.Len()) - 1} {
		var buf bytes.Buffer
		err := det.Save(&faultio.FailingWriter{W: &buf, N: n})
		if err == nil {
			t.Fatalf("write failing after %d bytes reported success", n)
		}
	}
	// A silently-truncating writer (lost page cache) yields bytes the
	// checksum rejects at load.
	var trunc bytes.Buffer
	if err := det.Save(&faultio.TruncatingWriter{W: &trunc, N: int64(full.Len()) - 3}); err != nil {
		t.Fatal(err) // the writer lies, Save cannot know
	}
	if _, err := Load(&trunc); err == nil {
		t.Fatal("truncated-by-cache bytes accepted")
	}
}

func TestLoadAfterReloadContinuesCorrectly(t *testing.T) {
	// Save → Load → Append → query must match a detector that ingested
	// the whole stream without the round trip.
	data := testStream(13, 32, 4000)
	half := len(data) / 2
	oracle, _ := New(32, WithPBE2(2), WithSketchDims(3, 32))
	first, _ := New(32, WithPBE2(2), WithSketchDims(3, 32))
	twin, _ := New(32, WithPBE2(2), WithSketchDims(3, 32))
	for _, el := range data[:half] {
		oracle.Append(el.Event, el.Time)
		first.Append(el.Event, el.Time)
		twin.Append(el.Event, el.Time)
	}
	twin.Finish() // what Save does to first, without the file
	var buf bytes.Buffer
	if err := first.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range data[half:] {
		oracle.Append(el.Event, el.Time)
		reloaded.Append(el.Event, el.Time)
		twin.Append(el.Event, el.Time)
	}
	oracle.Finish()
	reloaded.Finish()
	twin.Finish()
	if oracle.N() != reloaded.N() || oracle.MaxTime() != reloaded.MaxTime() {
		t.Fatalf("metadata diverged: N %d vs %d", oracle.N(), reloaded.N())
	}
	// PBE-2 summaries are deterministic, so estimates must agree exactly
	// wherever the reload boundary did not change flush timing; allow the
	// boundary itself to differ by at most one flushed window (γ).
	for e := uint64(0); e < 32; e += 3 {
		for q := int64(0); q <= oracle.MaxTime(); q += 331 {
			a, _ := oracle.Burstiness(e, q, 120)
			b, _ := reloaded.Burstiness(e, q, 120)
			if diff := a - b; diff > 8 || diff < -8 {
				t.Fatalf("burstiness diverged at e=%d t=%d: %v vs %v", e, q, a, b)
			}
		}
	}
	// Against the twin that finished at the same instant and was never
	// stored there is nothing to allow for. A loaded level's cells share
	// three arrays; every cell that closed a segment in the second half
	// outgrew its range of them, and must have taken its own copy.
	if before, after := first.Bytes(), reloaded.Bytes(); after <= before {
		t.Fatalf("fixture: the second half closed no segment (%d then %d bytes)", before, after)
	}
	sameDetector(t, "appended after load", reloaded, twin)
}

// sameDetector holds got to want in the bytes Save writes and in every field
// of every cell of every level.
func sameDetector(t *testing.T, what string, got, want *Detector) {
	t.Helper()
	got.Bytes() // fill both footprint memos: they are fields too
	want.Bytes()
	if !reflect.DeepEqual(got, want) {
		levels, heights := indexLevels(want)
		gotLevels, _ := indexLevels(got)
		for i := range levels {
			if !reflect.DeepEqual(gotLevels[i], levels[i]) {
				t.Errorf("%s: the level at height %d differs", what, heights[i])
			}
		}
		t.Fatalf("%s: detectors differ:\n%+v\n%+v", what, got, want)
	}
	var a, b bytes.Buffer
	if err := got.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: Save writes %d bytes, the reference %d, and they differ", what, a.Len(), b.Len())
	}
}

// TestSaveDecodeFixedPoint: whatever detector Save is given, Decode returns
// it — every field of every cell of every level — its answers are the
// original's to the bit, and saving it again writes the same file.
func TestSaveDecodeFixedPoint(t *testing.T) {
	parts, _, _ := buildDecayParts(t, 4, decayOpts()...)
	merged, err := MergeDetectors(parts)
	if err != nil {
		t.Fatal(err)
	}
	downsampled, err := DownsampleDetectors(parts, 16, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order arrivals, which the cells count in a column of their own.
	disordered, _ := New(64, WithPBE2(2), WithSketchDims(2, 8))
	for i, el := range testStream(5, 64, 1500) {
		if i%7 == 3 {
			el.Time -= 40
		}
		disordered.Append(el.Event, el.Time)
	}
	empty, _ := New(64, WithPBE2(2))
	small := func(opts ...Option) *Detector {
		det, err := New(64, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range testStream(21, 64, 3000) {
			det.Append(el.Event, el.Time)
		}
		return det
	}
	for _, c := range []struct {
		name string
		det  *Detector
	}{
		{"built", rioDetector(t, 5, 60_000, 1024, WithPBE2(8))},
		{"merged", merged},
		{"downsampled", downsampled},
		{"K = 2¹⁴ with Count-Min levels", rioDetector(t, 6, 30_000, 1<<14, WithPBE2(4))},
		{"out-of-order arrivals", disordered},
		{"empty", empty},
		{"3×32 layout", small(WithPBE2(3), WithSketchDims(3, 32))},
	} {
		var file bytes.Buffer
		if err := c.det.Save(&file); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := Decode(file.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameDetector(t, c.name, got, c.det)
		sameAnswers(t, c.name, got, c.det)
	}
}

// sameAnswers asks both detectors the three queries over a grid of events and
// instants and wants equal answers, bit for bit.
func sameAnswers(t *testing.T, what string, got, want *Detector) {
	t.Helper()
	span := want.MaxTime() - want.MinTime()
	tau := max(span/30, 1)
	for i := int64(0); i <= 24; i++ {
		q := want.MinTime() + span*i/24
		for e := uint64(0); e < want.K(); e += max(want.K()/37, 1) {
			a, err := want.Burstiness(e, q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if b, _ := got.Burstiness(e, q, tau); a != b {
				t.Fatalf("%s: POINT (%d, %d): %v, the original %v", what, e, q, b, a)
			}
		}
		for _, theta := range []float64{5, 40} {
			a, aerr := want.BurstyEvents(q, theta, tau)
			b, berr := got.BurstyEvents(q, theta, tau)
			if (aerr == nil) != (berr == nil) || !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: BURSTY-EVENT at %d θ=%v: %v (%v), the original %v (%v)", what, q, theta, b, berr, a, aerr)
			}
		}
	}
	for e := uint64(0); e < want.K(); e += max(want.K()/11, 1) {
		a, aerr := want.BurstyTimes(e, 5, tau)
		b, berr := got.BurstyTimes(e, 5, tau)
		if (aerr == nil) != (berr == nil) || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: BURSTY-TIME of %d: %v (%v), the original %v (%v)", what, e, b, berr, a, aerr)
		}
	}
}

func TestMergeAppendErrorPaths(t *testing.T) {
	base, _ := New(16, WithPBE2(2), WithSketchDims(2, 8))
	base.Append(1, 100)

	// Nil other.
	if err := base.MergeAppend(nil); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Fatalf("nil other: %v", err)
	}
	// Config mismatch: different sketch dims.
	other, _ := New(16, WithPBE2(2), WithSketchDims(4, 16))
	if err := base.MergeAppend(other); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("dims mismatch: %v", err)
	}
	// Config mismatch: different error cap.
	other2, _ := New(16, WithPBE2(3), WithSketchDims(2, 8))
	if err := base.MergeAppend(other2); err == nil {
		t.Fatal("error-cap mismatch accepted")
	}
	// Different id space.
	other3, _ := New(64, WithPBE2(2), WithSketchDims(2, 8))
	if err := base.MergeAppend(other3); err == nil {
		t.Fatal("id-space mismatch accepted")
	}
	// Empty other is a clean no-op.
	empty, _ := New(16, WithPBE2(2), WithSketchDims(2, 8))
	if err := base.MergeAppend(empty); err != nil {
		t.Fatalf("empty other: %v", err)
	}
	if base.N() != 1 {
		t.Fatalf("N changed on empty merge: %d", base.N())
	}
	// The failed merges left the receiver usable.
	base.Append(1, 200)
	if b, err := base.Burstiness(1, 200, 100); err != nil || b <= 0 {
		t.Fatalf("receiver broken after failed merges: b=%v err=%v", b, err)
	}
}

// TestLoadRejectsImplausibleHeaders patches header fields of a valid file
// and recomputes the footer, so the corruption passes the checksum and must
// be caught by the validation behind it.
func TestLoadRejectsImplausibleHeaders(t *testing.T) {
	det, _ := New(8, WithPBE2(2), WithSketchDims(2, 8))
	det.Append(1, 10)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Everything after magic, k, seed, d, w (k, d and w are single-byte
	// varints here), minus the footer.
	rest := buf.Bytes()[5+1+8+1+1 : buf.Len()-4]

	for _, tc := range []struct {
		name    string
		k, d, w uint64
		want    string
	}{
		{"empty id space", 0, 2, 8, "empty id space"},
		{"id space beyond the bound", 1 << 60, 2, 8, "implausible id space"},
		{"absurd depth", 8, 1 << 30, 8, "implausible sketch dimensions"},
		{"zero width", 8, 2, 0, "implausible sketch dimensions"},
	} {
		var enc binenc.Writer
		enc.BytesBlob(detectorMagic)
		enc.Uvarint(tc.k)
		enc.Int64(det.cfg.seed)
		enc.Uvarint(tc.d)
		enc.Uvarint(tc.w)
		body := append(enc.Bytes(), rest...)
		var footer binenc.Writer
		footer.Uint32(crc32.Checksum(body, crcTable))
		_, err := Load(bytes.NewReader(append(body, footer.Bytes()...)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestInspectRefusesUncellableGamma: a header γ that no cell accepts, under a
// valid checksum, is refused by Inspect with the error Decode gives. The
// header check is the only place Inspect can see it: Decode would refuse such
// a file at its first level anyway, which FuzzInspect files as the summary's
// fault.
func TestInspectRefusesUncellableGamma(t *testing.T) {
	det, _ := New(8, WithPBE2(2), WithSketchDims(2, 8))
	det.Append(1, 10)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	summary := buf.Bytes()[len(encodeHeader(det, detectorMagic, nil)) : buf.Len()-4]
	for _, gamma := range []float64{2, 0.5, math.NaN(), math.Inf(1)} {
		forged := *det
		forged.cfg.gamma = gamma
		data := sealed(encodeHeader(&forged, detectorMagic, summary))
		_, ierr := Inspect(data)
		_, derr := Decode(data)
		if gamma == 2 {
			if ierr != nil || derr != nil {
				t.Fatalf("fixture: the file as saved does not load: Inspect %v, Decode %v", ierr, derr)
			}
			continue
		}
		if ierr == nil || derr == nil || ierr.Error() != derr.Error() || !strings.Contains(ierr.Error(), "gamma must be at least 1") {
			t.Errorf("γ %v: Inspect error %v, Decode error %v; want both to refuse the header's γ alike", gamma, ierr, derr)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, []byte("not a detector"), {0x48, 0x42, 0x44, 0x01}}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncations of a valid file all fail.
	det, _ := New(8, WithPBE2(2), WithSketchDims(2, 8))
	det.Append(1, 10)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut += 13 {
		if _, err := Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("cut=%d accepted", cut)
		}
	}
}
