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
	// The previous generation is refused by its name.
	var old binenc.Writer
	old.BytesBlob([]byte{'H', 'B', 'S', 1})
	old.Bool(false)
	if _, err := LoadSingle(bytes.NewReader(old.Bytes())); err == nil || !strings.Contains(err.Error(), "HBS1") {
		t.Errorf("HBS1 file: %v, want a refusal naming HBS1", err)
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

// TestLoadSingleRefusesOtherFrontier: the cell block is written against the
// summary's own frontier, its last arrival. A later base would decode to the
// same summary, so under a valid checksum it is refused — a summary has one
// encoding — and an earlier one is refused by the block decoder.
func TestLoadSingleRefusesOtherFrontier(t *testing.T) {
	s, _ := NewSingle(WithPBE2(2))
	for _, tm := range []int64{5, 9, 9, 30} {
		s.Append(tm)
	}
	s.Finish()
	empty, _ := NewSingle(WithPBE2(2))
	against := func(s *Single, frontier int64) []byte {
		var enc binenc.Writer
		enc.BytesBlob(singleMagic)
		enc.Varint(frontier)
		if err := pbe2.EncodeBlock(&enc, []*pbe2.Summary{s.p.Seal()}, frontier); err != nil {
			t.Fatal(err)
		}
		return sealed(enc.Bytes())
	}
	if !bytes.Equal(against(s, 30), saveSingle(t, s)) || !bytes.Equal(against(empty, 0), saveSingle(t, empty)) {
		t.Fatal("fixture: Save does not write the block against the last arrival")
	}
	for _, c := range []struct {
		s        *Single
		frontier int64
		want     string
	}{
		{s, 31, "against frontier 31, its last arrival is at 30"},
		{s, 1 << 40, "its last arrival is at 30"},
		{s, 29, "past the level's last timestamp 29"},
		{empty, 7, "against frontier 7, its last arrival is at 0"},
	} {
		_, err := LoadSingle(bytes.NewReader(against(c.s, c.frontier)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("frontier %d: %v, want a refusal naming %q", c.frontier, err, c.want)
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
	coef := binary.LittleEndian.AppendUint64(nil, math.Float64bits(segs[len(segs)-1].B))
	at := bytes.LastIndex(raw, coef)
	if at < 0 {
		t.Fatal("fixture: the last segment's intercept is not in the file")
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

// TestLoadSingleRefusesHBS2: a summary of the previous generation, whole and
// under a valid checksum, is refused by its name.
func TestLoadSingleRefusesHBS2(t *testing.T) {
	s, _ := buildSingle(t, WithPBE2(2))
	_, err := LoadSingle(bytes.NewReader(saveHBS2(t, s)))
	if err == nil || !strings.Contains(err.Error(), "unsupported single-event summary format HBS2 (this build reads HBS3 only)") {
		t.Fatalf("HBS2 file: %v, want a refusal naming HBS2", err)
	}
}

// saveHBS2 writes a summary as the previous generation laid it out: its own
// "PB2\x02" blob (γ, the staircase counters, then each segment's
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
		blob.Float64(sg.B)
		blob.Varint(sg.Start - prev)
		blob.Varint(sg.End - sg.Start)
		prev = sg.Start
	}
	var enc binenc.Writer
	enc.BytesBlob([]byte{'H', 'B', 'S', 2})
	enc.BytesBlob(blob.Bytes())
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
