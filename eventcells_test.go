package histburst

import (
	"math/rand"
	"testing"

	"histburst/internal/pbe2"
)

// TestDetectorAppendEventCellsMatchesEventCells pins the buffer-reusing
// AppendEventCells fast path to EventCells: same cell identities in the same
// order, on a Count-Min leaf level.
func TestDetectorAppendEventCellsMatchesEventCells(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"indexed", []Option{WithSeed(5), WithSketchDims(3, 32), WithPBE2(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det, err := New(128, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(31))
			cur := int64(0)
			for i := 0; i < 5000; i++ {
				cur += int64(r.Intn(3))
				det.Append(uint64(r.Intn(128)), cur)
			}
			det.Finish()
			var buf []*pbe2.Builder
			for e := uint64(0); e < 300; e += 11 { // include ids past K, which fold
				naive := det.EventCells(e)
				buf = det.AppendEventCells(e, buf[:0])
				if len(buf) != len(naive) {
					t.Fatalf("e=%d: fast path returned %d cells, naive %d", e, len(buf), len(naive))
				}
				for i := range naive {
					if buf[i] != naive[i] {
						t.Fatalf("e=%d cell %d: fast path differs from naive", e, i)
					}
				}
			}
		})
	}
}
