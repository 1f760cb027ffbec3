package pbe2

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/stream"
)

// packedLevel builds, from a fuzzer's bytes, a level of 1 to 8 cells: the
// first byte picks how many, and each cell takes a byte m and then the 3m
// bytes that follow it, from which packedCase builds it (an empty cell when
// they make no segment).
func packedLevel(t *testing.T, data []byte) (cells []Builder, refs [][]Segment) {
	t.Helper()
	if len(data) == 0 {
		return nil, nil
	}
	k := int(data[0])%8 + 1
	data = data[1:]
	for range k {
		var run []byte
		if len(data) > 0 {
			m := 3 * int(data[0])
			run, data = data[1:1+min(m, len(data)-1)], data[1+min(m, len(data)-1):]
		}
		c := Builder{summary: Summary{gamma: 1, headLow: math.MaxInt64}}
		s, ref := packedCase(t, run)
		if s != nil {
			c.summary = *s
		}
		cells, refs = append(cells, c), append(refs, ref)
	}
	return cells, refs
}

// packedLevelSeeds are FuzzPackedLevel's seeds: every packedSeeds cell in
// one level, and levels that put a cell of no payload bytes — one segment of
// zero offset, length, value and slope, whose columns are all slack —
// first, last, alone and beside an empty cell, and end in empty cells.
var packedLevelSeeds = func() [][]byte {
	cell := func(seed []byte) []byte { return append([]byte{byte(len(seed) / 3)}, seed...) }
	zero := cell([]byte{64, 0, 0})
	all := []byte{byte(len(packedSeeds) - 1)}
	for _, seed := range packedSeeds {
		all = append(all, cell(seed)...)
	}
	join := func(parts ...[]byte) []byte {
		out := []byte{byte(len(parts) - 1)}
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return [][]byte{
		all,
		join(zero),
		join(zero, cell(packedSeeds[0]), zero),
		join(cell(packedSeeds[3]), []byte{0}, zero, cell(packedSeeds[6])),
		join(cell(packedSeeds[1]), zero),
		join(cell(packedSeeds[3]), cell([]byte{192, 1, 0}), []byte{0}, []byte{0}),
	}
}()

// FuzzPackedLevel lays 1 to 8 cells whose fields cross every byte width —
// none at all, float64 values and escaped segments among them
// (packedLevel) — as one level. Every cell reads back every segment it was
// written, the level lies in the array Lay returns, its footprint is that
// array and the escaped lines and what the layout says (refLevelBytes), and
// the level round-trips through the cell block to the same cells, the same
// array and the same bytes.
func FuzzPackedLevel(f *testing.F) {
	for _, seed := range packedLevelSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cells, refs := packedLevel(t, data)
		if cells == nil {
			return
		}
		cols := Lay(cells)
		if !Laid(cells, cols) {
			t.Fatal("the cells do not lie in the array Lay returned")
		}
		maxT, escaped := int64(math.MinInt64), 0
		for i := range cells {
			for j, want := range refs[i] {
				if got := cells[i].seg(j); !sameSegment(got, want) {
					t.Fatalf("laid, cell %d's segment %d reads %+v, was written %+v", i, j, got, want)
				}
			}
			if cells[i].count > 0 {
				maxT = max(maxT, cells[i].lastT)
			}
			escaped += cells[i].escaped()
		}
		p := LevelSplit(cells, cols)
		if got, want := p.Total(), refLevelBytes(refs); got != want || got != len(cols)+16*escaped || p.Slack > 8 {
			t.Fatalf("the level counts %d bytes (slack %d), want %d, the array and escaped lines hold %d", got, p.Slack, want, len(cols)+16*escaped)
		}
		blob := encodeBlock(t, cells, maxT)
		back := make([]Builder, len(cells))
		backCols, err := DecodeBlock(binenc.NewReader(blob), back, maxT)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(backCols, cols) || !Laid(back, backCols) {
			t.Fatalf("decoded into the array\n%x\nlaid as\n%x", backCols, cols)
		}
		if !reflect.DeepEqual(back, cells) {
			t.Fatalf("decoded as\n%+v\nlaid as\n%+v", back, cells)
		}
		if again := encodeBlock(t, back, maxT); !bytes.Equal(again, blob) {
			t.Fatal("the decoded level encodes to other bytes")
		}
	})
}

// TestPackedLevelSeeds: FuzzPackedLevel's seeds hold a cell of no payload
// bytes, an empty cell, and a level whose last cells are empty.
func TestPackedLevelSeeds(t *testing.T) {
	var zero, empty, trailing bool
	for _, data := range packedLevelSeeds {
		cells, _ := packedLevel(t, data)
		for i := range cells {
			b := &cells[i]
			zero = zero || b.n > 0 && b.payload() == 0
			empty = empty || b.n == 0
		}
		trailing = trailing || cells[len(cells)-1].n == 0
	}
	if !zero || !empty || !trailing {
		t.Fatalf("seeds hold a cell of no payload %v, an empty cell %v, a level ending in an empty cell %v; want all three", zero, empty, trailing)
	}
}

// TestAppendAfterFinishLeavesNeighbours: an append to a cell of a finished,
// laid level moves that cell's segments out of the level's array before it
// writes one, so every other cell reads the segments it held and every byte
// of the array stays as it was — appended across a Finish too, as a
// reopened store does — while the cell appended to answers as a twin never
// laid.
func TestAppendAfterFinishLeavesNeighbours(t *testing.T) {
	const gamma = 2
	streams := []stream.TimestampSeq{
		randomTimestamps(31, 400, 5),
		{3},
		randomTimestamps(32, 600, 3),
		randomTimestamps(33, 300, 11),
	}
	for target := range streams {
		var cells, twins []Builder
		maxT := int64(0)
		for _, ts := range streams {
			cells = append(cells, *buildPBE2(t, ts, gamma))
			twins = append(twins, *buildPBE2(t, ts, gamma))
			maxT = max(maxT, ts[len(ts)-1])
		}
		cols := Lay(cells)
		held := bytes.Clone(cols)
		segs := make([][]Segment, len(cells))
		for i := range cells {
			segs[i] = cells[i].Segments()
		}
		for i, v := range randomTimestamps(34, 1500, 6) {
			cells[target].Append(maxT + v)
			twins[target].Append(maxT + v)
			if i == 500 {
				cells[target].Finish()
				twins[target].Finish()
			}
		}
		cells[target].Finish()
		twins[target].Finish()
		if cells[target].NumSegments() <= len(segs[target]) {
			t.Fatal("fixture: the appends closed no segment")
		}
		if !bytes.Equal(cols, held) {
			t.Fatalf("appending to cell %d wrote into the level's array", target)
		}
		if Laid(cells, cols) {
			t.Fatalf("cell %d, appended to, still lies in the level's array", target)
		}
		for i := range cells {
			if i != target && !reflect.DeepEqual(cells[i].Segments(), segs[i]) {
				t.Errorf("appending to cell %d moved cell %d's segments", target, i)
			}
		}
		if got, want := cells[target].Segments(), twins[target].Segments(); !reflect.DeepEqual(got, want) {
			t.Errorf("cell %d appended to after laying holds other segments than its twin", target)
		}
	}
}
