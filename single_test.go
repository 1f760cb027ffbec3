package histburst

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/exact"
	"histburst/internal/pbe2"
)

func TestNewSingleValidation(t *testing.T) {
	if _, err := NewSingle(WithSketchDims(3, 8)); err == nil {
		t.Error("sketch dims accepted")
	}
	if _, err := NewSingle(WithSeed(5)); err == nil {
		t.Error("seed option accepted")
	}
	if _, err := NewSingle(WithPBE2(0.1)); err == nil {
		t.Error("bad gamma accepted")
	}
	if _, err := NewSingle(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

func buildSingle(t *testing.T, opts ...Option) (*Single, *exact.Store) {
	t.Helper()
	s, err := NewSingle(opts...)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.New()
	for tm := int64(0); tm < 5000; tm++ {
		mentions := 1
		if tm >= 3000 && tm < 3200 {
			mentions = 8
		}
		for j := 0; j < mentions; j++ {
			s.Append(tm)
			oracle.Append(0, tm)
		}
	}
	s.Finish()
	return s, oracle
}

func TestSingleQueries(t *testing.T) {
	s, oracle := buildSingle(t, WithPBE2(2))
	if s.N() != oracle.Len() {
		t.Fatalf("N = %d, want %d", s.N(), oracle.Len())
	}
	var sumErr float64
	n := 0
	for q := int64(0); q < 5000; q += 37 {
		b, err := s.Burstiness(q, 200)
		if err != nil {
			t.Fatal(err)
		}
		sumErr += math.Abs(b - float64(oracle.Burstiness(0, q, 200)))
		n++
	}
	if mean := sumErr / float64(n); mean > 10 {
		t.Fatalf("mean error %.2f too large", mean)
	}
	ranges, err := s.BurstyTimes(500, 200, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) == 0 {
		t.Fatal("planted burst not found")
	}
	for _, r := range ranges {
		if r.End < 2950 || r.Start > 3450 {
			t.Fatalf("spurious range %+v", r)
		}
	}
	if _, err := s.Burstiness(10, 0); err == nil {
		t.Error("tau=0 accepted")
	}
	if _, err := s.BurstyTimes(1, -1, 100); err == nil {
		t.Error("negative tau accepted")
	}
	if s.Bytes() <= 0 || s.Bytes() > 8*int(oracle.Len()) {
		t.Fatalf("implausible Bytes %d", s.Bytes())
	}
}

// saveSingle is Single.Save into memory.
func saveSingle(t testing.TB, s *Single) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSingleSaveLoad(t *testing.T) {
	s, _ := buildSingle(t, WithPBE2(2))
	got, err := LoadSingle(bytes.NewReader(saveSingle(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() {
		t.Fatalf("N = %d, want %d", got.N(), s.N())
	}
	// The loaded summary is the saved one in every field, so it answers
	// alike to the bit.
	if !reflect.DeepEqual(*got.p, *s.p) {
		t.Fatalf("loaded summary differs:\n%+v\nsaved:\n%+v", got.p, s.p)
	}
	for q := int64(0); q < 5100; q += 53 {
		if got.CumulativeFrequency(q) != s.CumulativeFrequency(q) {
			t.Fatalf("estimate differs at %d", q)
		}
		a, _ := s.Burstiness(q, 200)
		if b, _ := got.Burstiness(q, 200); a != b {
			t.Fatalf("burstiness differs at %d: %v, saved %v", q, b, a)
		}
	}
	a, _ := s.BurstyTimes(500, 200, 5000)
	if b, _ := got.BurstyTimes(500, 200, 5000); !reflect.DeepEqual(a, b) {
		t.Fatalf("bursty times differ: %v, saved %v", b, a)
	}
	// Appending resumes.
	got.Append(6000)
	got.Finish()
	if got.N() != s.N()+1 {
		t.Fatal("append after load broken")
	}
	if _, err := LoadSingle(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("garbage accepted")
	}
	// The generations with a format of their own are refused by name.
	var hbs1 binenc.Writer
	hbs1.BytesBlob([]byte{'H', 'B', 'S', 1})
	hbs1.Bool(false)
	for name, old := range map[string][]byte{"HBS1": hbs1.Bytes(), "HBS3": saveHBS3(t, s)} {
		if _, err := LoadSingle(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s file: %v, want a refusal naming %s", name, err, name)
		}
	}

	// Empty, clamped and before time zero: each round-trips whole.
	empty, _ := NewSingle(WithPBE2(4))
	clamped, _ := NewSingle(WithPBE2(2))
	early, _ := NewSingle(WithPBE2(2))
	for _, tm := range []int64{10, 40, 25, 41, 90, 3} {
		clamped.Append(tm)
	}
	for _, tm := range []int64{-900, -900, -450, -30} {
		early.Append(tm)
	}
	for name, s := range map[string]*Single{"empty": empty, "clamped": clamped, "before time zero": early} {
		got, err := LoadSingle(bytes.NewReader(saveSingle(t, s)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(*got.p, *s.p) {
			t.Errorf("%s: loaded summary differs:\n%+v\nsaved:\n%+v", name, got.p, s.p)
		}
	}
}

// TestLoadSingleRefusesBitFlips: a summary file ends in a checksum, so a flip
// that would decode into other coefficients — a summary answering for another
// stream — is refused, as is a flip anywhere else.
func TestLoadSingleRefusesBitFlips(t *testing.T) {
	s, err := NewSingle(WithPBE2(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		s.Append(i * i % 997 * 3)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	segs := s.p.Segments()
	coef := binary.LittleEndian.AppendUint32(nil, math.Float32bits(float32(segs[len(segs)-1].A)))
	at := bytes.LastIndex(raw, coef)
	if at < 0 {
		t.Fatal("fixture: the last segment's slope is not in the file")
	}
	flipped := append([]byte(nil), raw...)
	flipped[at] ^= 1
	if _, err := LoadSingle(bytes.NewReader(flipped)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("a flipped coefficient bit: %v, want a checksum refusal", err)
	}
	for i := range raw {
		flipped := append([]byte(nil), raw...)
		flipped[i] ^= 0x10
		if _, err := LoadSingle(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("bit flip at byte %d of %d accepted", i, len(raw))
		}
	}
}

// TestLoadSingleRefusesHBS2: a summary of a generation that had a format of
// its own, whole and under a valid checksum, is refused by its name — HBS2,
// which held the summary as a blob of its own, and HBS3, a one-cell block —
// and its bytes are left as they were.
func TestLoadSingleRefusesHBS2(t *testing.T) {
	s, _ := buildSingle(t, WithPBE2(2))
	for name, old := range map[string][]byte{"HBS2": saveHBS2(t, s), "HBS3": saveHBS3(t, s)} {
		kept := bytes.Clone(old)
		_, err := LoadSingle(bytes.NewReader(old))
		want := "unsupported single-event summary format " + name + " (this build reads a single-event summary as an HBD9 detector file over one id)"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s file: %v, want a refusal naming %s", name, err, name)
		}
		if !bytes.Equal(old, kept) {
			t.Errorf("%s file: refusing it changed its bytes", name)
		}
	}
}

// saveHBS2 writes a summary as the generation before last laid it out: its
// own "PB2\x02" blob (γ, the staircase counters, then each segment's
// coefficients, start delta and length) inside the HBS2 envelope.
func saveHBS2(t testing.TB, s *Single) []byte {
	t.Helper()
	s.Finish()
	var blob binenc.Writer
	blob.BytesBlob([]byte{'P', 'B', '2', 2})
	blob.Float64(s.p.Gamma())
	blob.Varint(s.p.Count())
	blob.Varint(s.p.Frontier())
	blob.Varint(s.p.Count())
	blob.Bool(s.p.Count() > 0)
	blob.Bool(s.p.Count() > 0)
	blob.Varint(s.p.OutOfOrder())
	segs := s.p.Segments()
	blob.Uvarint(uint64(len(segs)))
	var prev int64
	for _, sg := range segs {
		blob.Float64(sg.A)
		blob.Float64(sg.Y)
		blob.Varint(sg.Start - prev)
		blob.Varint(sg.End - sg.Start)
		prev = sg.Start
	}
	var enc binenc.Writer
	enc.BytesBlob([]byte{'H', 'B', 'S', 2})
	enc.BytesBlob(blob.Bytes())
	return sealed(enc.Bytes())
}

// saveHBS3 writes a summary as the previous generation laid it out: the
// frontier (its last arrival) and the summary as a one-cell block written
// against it, under a CRC32-C footer.
func saveHBS3(t testing.TB, s *Single) []byte {
	t.Helper()
	s.Finish()
	var enc binenc.Writer
	enc.BytesBlob([]byte{'H', 'B', 'S', 3})
	enc.Varint(s.p.Frontier())
	if err := pbe2.EncodeBlock(&enc, []*pbe2.Summary{s.p.Seal()}, s.p.Frontier()); err != nil {
		t.Fatal(err)
	}
	return sealed(enc.Bytes())
}

func TestSingleMergeAppend(t *testing.T) {
	a, err := NewSingle(WithPBE2(2))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSingle(WithPBE2(2))
	for tm := int64(0); tm < 1000; tm++ {
		a.Append(tm)
	}
	for tm := int64(1000); tm < 2000; tm++ {
		b.Append(tm)
	}
	if err := a.MergeAppend(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 2000 {
		t.Fatalf("N = %d", a.N())
	}
	if f := a.CumulativeFrequency(1999); math.Abs(f-2000) > 2 {
		t.Fatalf("F(1999) = %v", f)
	}
	c, _ := NewSingle(WithPBE2(3))
	if err := a.MergeAppend(c); err == nil {
		t.Error("error-cap mismatch accepted")
	}
	if err := a.MergeAppend(nil); err == nil {
		t.Error("nil accepted")
	}
}

// TestSingleIsAOneEventDetector: a Single is the detector over one id. Its
// file loads through Load as the K = 1 detector fed the same arrivals — the
// same counters, and for a stream in time order the same bytes — and answers
// POINT, F and TIMES bit-identically. LoadSingle refuses by name a detector
// over more ids or configured beyond WithPBE2, leaving the file's bytes as
// they were.
func TestSingleIsAOneEventDetector(t *testing.T) {
	steady, _ := buildSingle(t, WithPBE2(2))
	var steadyTimes []int64
	for tm := int64(0); tm < 5000; tm++ {
		steadyTimes = append(steadyTimes, tm)
		if tm >= 3000 && tm < 3200 {
			steadyTimes = append(steadyTimes, tm, tm, tm, tm, tm, tm, tm)
		}
	}
	for _, c := range []struct {
		name    string
		times   []int64
		inOrder bool
	}{
		{"steady with a burst", steadyTimes, true},
		{"empty", nil, true},
		{"before time zero", []int64{-900, -900, -450, -30}, true},
		{"clamped", []int64{10, 40, 25, 41, 90, 3}, false},
	} {
		s, _ := NewSingle(WithPBE2(2))
		fed, _ := New(1, WithPBE2(2))
		for _, tm := range c.times {
			s.Append(tm)
			fed.Append(0, tm)
		}
		if c.name == "steady with a burst" && !reflect.DeepEqual(*s.p.Seal(), *steady.p.Seal()) {
			t.Fatal("fixture: the stream is not buildSingle's")
		}
		file := saveSingle(t, s)
		var want bytes.Buffer
		if err := fed.Save(&want); err != nil {
			t.Fatal(err)
		}
		if c.inOrder && !bytes.Equal(file, want.Bytes()) {
			t.Errorf("%s: a Single's file differs from the K = 1 detector's", c.name)
		}
		d, err := Load(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d.K() != 1 || d.N() != fed.N() || d.MinTime() != fed.MinTime() || d.MaxTime() != fed.MaxTime() ||
			d.OutOfOrder() != fed.OutOfOrder() || d.Bytes() != s.Bytes() {
			t.Fatalf("%s: loaded detector K %d, N %d, times [%d, %d], %d clamped, %d B; fed K = 1 detector N %d, times [%d, %d], %d clamped; the summary %d B",
				c.name, d.K(), d.N(), d.MinTime(), d.MaxTime(), d.OutOfOrder(), d.Bytes(), fed.N(), fed.MinTime(), fed.MaxTime(), fed.OutOfOrder(), s.Bytes())
		}
		for q := int64(-1000); q < 5300; q += 7 {
			if a, b := s.CumulativeFrequency(q), d.CumulativeFrequency(0, q); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: F(%d): single %v, detector %v", c.name, q, a, b)
			}
			for _, tau := range []int64{1, 37, 200, 1 << 40} {
				a, err := s.Burstiness(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				b, err := d.Burstiness(0, q, tau)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: b(%d, τ=%d): single %v, detector %v", c.name, q, tau, a, b)
				}
			}
		}
		for _, theta := range []float64{1, 100, 500} {
			a, err := s.BurstyTimes(theta, 200, d.MaxTime())
			if err != nil {
				t.Fatal(err)
			}
			b, err := d.BurstyTimes(0, theta, 200)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: TIMES at θ = %v: single %v, detector %v", c.name, theta, a, b)
			}
		}
		back, err := LoadSingle(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(saveSingle(t, back), file) {
			t.Errorf("%s: a loaded Single saves to other bytes", c.name)
		}
	}

	// A merged summary's file records the first arrival of its first
	// non-empty part.
	empty, _ := NewSingle(WithPBE2(2))
	late, _ := NewSingle(WithPBE2(2))
	late.Append(40)
	late.Append(41)
	if err := empty.MergeAppend(late); err != nil {
		t.Fatal(err)
	}
	if d, err := Load(bytes.NewReader(saveSingle(t, empty))); err != nil || d.N() != 2 || d.MinTime() != 40 || d.MaxTime() != 41 {
		t.Errorf("merged into an empty summary: %v, want a detector of 2 arrivals over [40, 41]", err)
	}

	for _, c := range []struct {
		k    uint64
		opts []Option
		want string
	}{
		{1024, []Option{WithPBE2(2)}, "not a single-event summary: a detector over 1024 ids"},
		{1, []Option{WithPBE2(2), WithSeed(7)}, "not a single-event summary: a detector of seed 7 and sketch dimensions 5×272"},
		{1, []Option{WithSketchDims(3, 64)}, "not a single-event summary: a detector of seed 1 and sketch dimensions 3×64"},
	} {
		other, err := New(c.k, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		other.Append(0, 10)
		var buf bytes.Buffer
		if err := other.Save(&buf); err != nil {
			t.Fatal(err)
		}
		file := buf.Bytes()
		kept := bytes.Clone(file)
		if _, err := LoadSingle(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("detector file: %v, want a refusal naming %q", err, c.want)
		}
		if !bytes.Equal(file, kept) {
			t.Errorf("refusing a detector file (%s) changed its bytes", c.want)
		}
	}
}
