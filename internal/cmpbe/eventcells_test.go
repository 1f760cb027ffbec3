package cmpbe

import (
	"testing"

	"histburst/internal/pbe2"
)

// The AppendEventCells fast paths must return exactly the cells EventCells
// returns — same identities, same order — since the cross-segment query path
// substitutes one for the other per segment.

func TestSketchAppendEventCellsMatchesEventCells(t *testing.T) {
	s := pbe2Sketch(t, 3, 32, 2)
	for _, el := range mixedStream(5, 20_000, 64) {
		s.Append(el.Event, el.Time)
	}
	s.Finish()
	var buf []*pbe2.Builder
	for e := uint64(0); e < 200; e += 7 { // include ids past the folded space
		naive := s.EventCells(e)
		buf = s.AppendEventCells(e, buf[:0])
		if len(buf) != len(naive) {
			t.Fatalf("e=%d: fast path returned %d cells, naive %d", e, len(buf), len(naive))
		}
		for i := range naive {
			if buf[i] != naive[i] {
				t.Fatalf("e=%d row %d: fast path cell differs from naive", e, i)
			}
		}
	}
}

func TestDirectAppendEventCellsMatchesEventCells(t *testing.T) {
	d, err := NewDirect(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range mixedStream(9, 5_000, 16) {
		d.Append(el.Event, el.Time)
	}
	d.Finish()
	var buf []*pbe2.Builder
	for e := uint64(0); e < 40; e++ { // include ids past the folded space
		naive := d.EventCells(e)
		buf = d.AppendEventCells(e, buf[:0])
		if len(buf) != 1 || len(naive) != 1 || buf[0] != naive[0] {
			t.Fatalf("e=%d: fast path cell differs from naive", e)
		}
	}
}
