package stream

import (
	"bytes"
	"math"
	"testing"
)

// FuzzRead ensures the stream decoder never panics or over-allocates on
// arbitrary input, and that anything it accepts round-trips.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	_ = Write(&buf, Stream{{Event: 1, Time: 5}, {Event: 2, Time: 9}})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("HBST junk"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	var wide bytes.Buffer // a sorted span past 2⁶³: its delta wraps
	_ = Write(&wide, Stream{{Event: 1, Time: math.MinInt64 + 1}, {Event: 2, Time: math.MaxInt64}})
	f.Add(wide.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must be a valid stream that re-encodes cleanly.
		if err := s.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid stream: %v", err)
		}
		var out bytes.Buffer
		if err := Write(&out, s); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		s2, err := Read(&out)
		if err != nil || len(s2) != len(s) {
			t.Fatalf("round trip failed: %v (%d vs %d)", err, len(s2), len(s))
		}
	})
}
