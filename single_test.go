package histburst

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/exact"
)

func TestNewSingleValidation(t *testing.T) {
	if _, err := NewSingle(WithSketchDims(3, 8)); err == nil {
		t.Error("sketch dims accepted")
	}
	if _, err := NewSingle(WithoutEventIndex()); err == nil {
		t.Error("index option accepted")
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

func TestSingleSaveLoad(t *testing.T) {
	s, _ := buildSingle(t, WithPBE2(2))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSingle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() {
		t.Fatalf("N = %d, want %d", got.N(), s.N())
	}
	for q := int64(0); q < 5100; q += 53 {
		if got.CumulativeFrequency(q) != s.CumulativeFrequency(q) {
			t.Fatalf("estimate differs at %d", q)
		}
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
