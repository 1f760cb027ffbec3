package cmpbe

import (
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/pbe2"
)

// checkLaid holds a level to the form every path that makes one leaves it
// in: its cells lie end to end in its one array (pbe2.Laid), and its
// footprint is that array and 16 bytes an escaped line, the slack only the
// few bytes the last cell's loads read.
func checkLaid(t *testing.T, what string, s *Sketch) {
	t.Helper()
	if !s.Laid() {
		t.Fatalf("%s: the cells do not lie in the level's array", what)
	}
	p := s.Split()
	if got, want := s.Bytes(), len(s.cols)+p.Escaped; got != want || p.Total() != got {
		t.Fatalf("%s: Bytes() = %d, its lines sum to %d, the array and escaped lines hold %d", what, got, p.Total(), want)
	}
	if p.Slack > 8 {
		t.Fatalf("%s: %d bytes of slack, more than the last cell's loads read", what, p.Slack)
	}
}

// TestLevelLaidInOneArray: Finish, a merge, a downsample, decoding and a
// level made of one summary each leave the level laid; a second Finish
// leaves it as it was; an append takes it out of its array, and the Finish
// after it lays it again.
func TestLevelLaidInOneArray(t *testing.T) {
	data := mixedStream(7, 20000, 200)
	cut := len(data) / 2
	for data[cut].Time == data[cut-1].Time {
		cut++
	}
	build := func(direct bool) (parts []*Sketch) {
		for _, run := range [][]int{{0, cut}, {cut, len(data)}} {
			s, err := New(3, 64, 5, 2)
			if direct {
				s, err = NewDirect(256, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, el := range data[run[0]:run[1]] {
				s.Append(el.Event, el.Time)
			}
			s.Finish()
			checkLaid(t, "finished", s)
			parts = append(parts, s)
		}
		return parts
	}
	for _, direct := range []bool{false, true} {
		parts := build(direct)
		merged, err := MergeSketches(parts)
		if err != nil {
			t.Fatal(err)
		}
		checkLaid(t, "merged", merged)
		ds, err := DownsampleSketches(parts, 16, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		checkLaid(t, "downsampled", ds)
		var w binenc.Writer
		if err := merged.Encode(&w); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeLevel(binenc.NewReader(w.Bytes()), 2)
		if err != nil {
			t.Fatal(err)
		}
		checkLaid(t, "decoded", back)
		if back.Bytes() != merged.Bytes() {
			t.Fatalf("decoded, the level counts %d bytes, built %d", back.Bytes(), merged.Bytes())
		}

		cols := &merged.cols[0]
		merged.Finish()
		if &merged.cols[0] != cols {
			t.Fatal("a second Finish laid the level again")
		}
		merged.Append(data[0].Event, data[len(data)-1].Time+5)
		if merged.Laid() {
			t.Fatal("a cell appended to still counts as laid")
		}
		merged.Finish()
		checkLaid(t, "appended to and finished", merged)
	}
	one, err := NewDirectOf(build(true)[0].EventCells(data[0].Event)[0].Seal())
	if err != nil {
		t.Fatal(err)
	}
	checkLaid(t, "one summary", one)
	if sum := one.cells[0].Seal(); one.Bytes() != sum.Bytes() {
		t.Fatalf("a level of one cell counts %d bytes, the cell alone %d", one.Bytes(), sum.Bytes())
	}
	var empty Sketch
	if empty.Laid() || (&Sketch{cells: make([]pbe2.Builder, 1)}).Laid() {
		t.Fatal("a level never laid counts as laid")
	}
}
