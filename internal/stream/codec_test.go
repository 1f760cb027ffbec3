package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"histburst/internal/binenc"
)

func TestCodecRoundTrip(t *testing.T) {
	s := Stream{{1, 0}, {2, 0}, {864, 1}, {3, 100000}, {3, 100000}, {1, 2678400}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(s) {
		t.Fatalf("round trip length %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], s[i])
		}
	}
}

func TestCodecEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatalf("Write(empty): %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read(empty): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("Read(empty) = %v", got)
	}
}

func TestCodecRejectsUnsorted(t *testing.T) {
	var buf bytes.Buffer
	err := Write(&buf, Stream{{1, 5}, {1, 2}})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("Write(unsorted) = %v, want ErrOutOfOrder", err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,                         // empty
		[]byte("short"),             // truncated header
		bytes.Repeat([]byte{0}, 16), // bad magic
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader(c)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: Read = %v, want ErrBadFormat", i, err)
		}
	}
}

func TestCodecRejectsTruncatedBody(t *testing.T) {
	s := Stream{{1, 1}, {2, 2}, {3, 3}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 16; cut < len(raw); cut++ {
		if _, err := Read(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("cut=%d: Read = %v, want ErrBadFormat", cut, err)
		}
	}
}

func TestCodecRejectsHugeCountGracefully(t *testing.T) {
	// A header claiming 2^40 elements with no body must fail cleanly, not OOM.
	var buf bytes.Buffer
	if err := Write(&buf, Stream{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8], raw[9], raw[10], raw[11], raw[12] = 0, 0, 0, 0, 1
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Read = %v, want ErrBadFormat", err)
	}
}

func TestCodecProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := make(Stream, int(n))
		cur := int64(0)
		for i := range s {
			cur += int64(r.Intn(1000))
			s[i] = Element{Event: r.Uint64() % 2048, Time: cur}
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != len(s) {
			return false
		}
		for i := range s {
			if got[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteGolden pins HBST bytes to the ones the format has always had:
// unsorted batches are refused, duplicate timestamps, Unix-second and
// Unix-millisecond origins encode as before, and a sorted stream spanning
// more than 2⁶³ — whose delta wraps — both encodes as before and reads back.
func TestWriteGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Stream
		hex  string // "" when Write refuses the stream
	}{
		{"unsorted", Stream{{3, 100}, {1, 40}, {1 << 40, 250}, {2, -10}}, ""},
		{"duplicates", Stream{{5, 7}, {5, 7}, {9, 7}, {5, 8}},
			"54534248010000000400000000000000050e050009000502"},
		{"epoch seconds", Stream{{1, 1_700_000_000}, {2, 1_700_000_003}, {1, 1_700_086_400}},
			"545342480100000003000000000000000180c49fd50c020601fac50a"},
		{"epoch millis", Stream{{0, 1_700_000_000_000}, {300, 1_700_000_000_250}, {70_000, 1_700_086_400_000}},
			"545342480100000003000000000000000080a0abfef962ac02f403f0a2048cecb252"},
		{"span past 2^63", Stream{{1, math.MinInt64 + 1}, {2, math.MaxInt64}},
			"5453424801000000020000000000000001fdffffffffffffffff010203"},
	} {
		var buf bytes.Buffer
		err := Write(&buf, tc.s)
		if tc.hex == "" {
			if !errors.Is(err, ErrOutOfOrder) {
				t.Errorf("%s: Write = %v, want ErrOutOfOrder", tc.name, err)
			}
			continue
		}
		if got := hex.EncodeToString(buf.Bytes()); err != nil || got != tc.hex {
			t.Errorf("%s: Write = %s (%v), want %s", tc.name, got, err, tc.hex)
			continue
		}
		if got, err := Read(&buf); err != nil || !slices.Equal(got, tc.s) {
			t.Errorf("%s: Read = %v (%v), want %v", tc.name, got, err, tc.s)
		}
	}
}

// TestReadRefuses: bytes after the last element, a run whose times
// decrease, and a count the remaining bytes cannot hold are all refused.
func TestReadRefuses(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Stream{{1, 5}, {2, 9}}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	unsorted := slices.Clone(good)
	unsorted[len(unsorted)-1] = 0x07 // the second delta: +4 becomes −4
	for name, data := range map[string][]byte{
		"trailing byte": append(slices.Clone(good), 0),
		"decreasing":    unsorted,
		"count past the bytes": func() []byte {
			b := slices.Clone(good)
			b[8] = 3
			return b
		}(),
	} {
		if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: Read = %v, want ErrBadFormat", name, err)
		}
	}
}

// FuzzElementRun: encoding any Stream as an element run and reading it back
// returns it, whatever its order or span, and consumes exactly the bytes
// written.
func FuzzElementRun(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0x80}, uint64(1)<<40)
	f.Fuzz(func(t *testing.T, times []byte, event uint64) {
		var s Stream
		for i := 0; i+8 <= len(times); i += 8 {
			s = append(s, Element{Event: event ^ uint64(i), Time: int64(binary.LittleEndian.Uint64(times[i:]))})
		}
		var w binenc.Writer
		AppendRun(&w, s)
		r := binenc.NewReader(w.Bytes())
		got := make(Stream, len(s))
		ReadRun(r, got)
		if err := r.Close(); err != nil || !slices.Equal(got, s) {
			t.Fatalf("round trip = %v (%v), want %v", got, err, s)
		}
	})
}
