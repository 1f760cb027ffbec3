package histburst

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/cmpbe"
	"histburst/internal/pbe2"
	"histburst/internal/workload"
)

// rioDetector builds a finished detector over the olympicrio scenario.
func rioDetector(t testing.TB, seed, n int64, k uint64, opts ...Option) *Detector {
	t.Helper()
	data, err := workload.Generate(workload.OlympicRioSpec(seed, n))
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range data {
		det.Append(el.Event, el.Time)
	}
	det.Finish()
	return det
}

func saveDigest(t *testing.T, det *Detector) string {
	t.Helper()
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestSaveBytesUnchanged pins Save's bytes across changes to how summaries
// are held in memory: they must never move for a layout's sake. The digests
// are re-pinned when the file itself changes, once per generation: HBD3 (PR
// 25) kept the event index's kept levels only; HBD4 (PR 26) writes a level's
// PBE-2 cells as one block instead of a blob each, which took these three
// files from 119 388, 1 194 067 and 14 028 bytes to 93 054, 1 004 578 and
// 11 402; HBD5 (PR 28) holds the levels from height 4 up under
// dyadic.SteerGammaFactor × γ: 58 181, 908 164 and 10 985; HBD6 drops the
// header's five PBE-1 fields (5 bytes) and each level's cell-block vertex cap
// (1 byte a level): 58 173, 908 152 and 10 976; HBD7 drops the header's
// event-index flag, and only that header byte moved — every other byte
// but the magic's version is the HBD6 file's: 58 172, 908 151 and 10 975;
// HBD8 stores a segment's line as a float32 slope and a fixed-point value at
// its start, 8 bytes where two float64 took 16, chosen inside the window's
// feasible region, so its answers move by less than a count: 38 109,
// 557 844 and 6 707; HBD9 writes each record in the form its cell holds it,
// a value on the grid as a varint of its 2⁻⁸ counts where HBD8 took an
// int32, and drops the escaped lines' section and its three counts, with
// every answer unmoved: 34 704, 507 431 and 6 059; HBD10 closes a window,
// when it can, on a slope whose float32 ends in zero bytes and that moves
// the line by at most 2⁻⁸ count, and stores every slope of a cell at the
// width the cell's slopes need, 0, 2, 3 or 4 bytes: 32 548, 465 956 and
// 5 561.
// What a generation must carry over — every field of every cell, and every
// answer — is TestSaveDecodeFixedPoint's to check, not a digest's; that the
// leaf level is the bytes it was is TestLeafAnswersUnmoved's.
func TestSaveBytesUnchanged(t *testing.T) {
	t.Run("olympicrio K=1024", func(t *testing.T) {
		det := rioDetector(t, 5, 60_000, 1024, WithPBE2(8))
		if got, want := saveDigest(t, det), "326d322be34871610739362b294ada60ea3cc7b844f0973cc0dcb9931b80129b"; got != want {
			t.Fatalf("Save digest %s, want %s", got, want)
		}
	})
	t.Run("K=16384 with Count-Min levels", func(t *testing.T) {
		det := rioDetector(t, 6, 30_000, 1<<14, WithPBE2(4))
		if got, want := saveDigest(t, det), "36353b159f7df62f0412d0ed4227d6100d8db46727c41f0540f35273adb6ff31"; got != want {
			t.Fatalf("Save digest %s, want %s", got, want)
		}
	})
	t.Run("downsampled merge of four parts", func(t *testing.T) {
		parts, _, _ := buildDecayParts(t, 4, decayOpts()...)
		ds, err := DownsampleDetectors(parts, 16, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := saveDigest(t, ds), "6b152fc4df39c1d3a159662e3a0a5029a4b1a438e123e3ab6ba71832bc0a310e"; got != want {
			t.Fatalf("Save digest %s, want %s", got, want)
		}
	})
}

// savedLen returns the size of the detector's file.
func savedLen(t testing.TB, det *Detector) int {
	t.Helper()
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestSegmentationTax pins what cutting a history into sealed segments costs
// on disk: the benchmark's stream saved as the segments of its base store
// (twelve of 50 000 elements, as SealEvents cuts it, and the remainder)
// against the same stream saved as one detector. A summary's size follows its
// segment count, and thirteen short histories close more PBE-2 segments than
// one long one — every cell's open window is cut at every seal — which is the
// paper's part; the rest is what the file spends around them, per cell and
// per level, thirteen times over (×1.80 in all before HBD4, when every cell
// was a blob of its own with a 24-byte envelope).
//
// The tax is a per-level quantity and is held per level. The leaf level, at
// γ, closes 19 163 segments in thirteen files against 10 918 in one (×1.76)
// and its bytes double; height 4, at 4γ, 1 720 against 1 213 (×1.42); height
// 8 737 against 709 (×1.04) — the looser a level's γ and the denser its
// cells, the longer its windows already are and the less a cut costs. The
// total (×2.06) is the leaf's tax diluted by whatever else the file holds:
// it read ×1.40 while heights 4 and 8 were under the leaf's γ and two thirds
// of the file, and says nothing a level's own ratio does not.
//
// Since HBD8 a narrow segment record is 8 bytes of line where it was 16, so
// the records shrank and the per-cell columns each file repeats weigh more:
// the leaf's ratio went ×2.00 → ×2.16 and height 4's ×1.60 → ×1.72 while
// the bytes the cut adds at the leaf fell from 222 k to 156 k. A ratio alone
// would let those bytes grow unseen as long as the one file grew with them,
// so each level's added bytes are held too, a few per cent above what they
// measure. HBD9's grid values take a varint of 2⁻⁸ counts where HBD8 took
// an int32, and every file drops the escaped lines' counts: the ratios went
// to ×2.09, ×1.62 and ×1.10, and the bytes added to 137 033, 9 009 and 776
// (from 156 315, 10 637 and 1 011). HBD10 stores each slope at the width its
// cell's slopes need, for two bits a present cell: the ratios went to
// ×2.10, ×1.57 and ×1.09, and the bytes added to 127 461, 8 239 and 760.
func TestSegmentationTax(t *testing.T) {
	one, parts := taxLayout(t)
	elems := one.N()

	file, dir := savedLen(t, one), 0
	var whole, cut levelBytes
	for _, part := range parts {
		dir += savedLen(t, part)
		cut.add(t, part)
	}
	whole.add(t, one)
	t.Logf("%d elements: one file %d B (%.3f B/elem), %d segment files %d B (%.3f B/elem), ×%.3f",
		elems, file, float64(file)/float64(elems), len(parts), dir, float64(dir)/float64(elems), float64(dir)/float64(file))
	t.Logf("%-14s %8s %8s %9s %9s %9s", "", "cells", "segments", "header B", "columns B", "records B")
	for i, h := range one.tree.Heights() {
		t.Logf("one   height %d %8d %8d %9d %9d %9d", h, whole.cells[i], whole.segments[i], whole.header[i], whole.columns[i], whole.records[i])
	}
	for i, h := range one.tree.Heights() {
		t.Logf("×%-2d   height %d %8d %8d %9d %9d %9d", len(parts), h, cut.cells[i], cut.segments[i], cut.header[i], cut.columns[i], cut.records[i])
	}
	for i, h := range one.tree.Heights() {
		t.Logf("height %d: narrow lines %d of %d in one file, %d of %d in %d", h,
			whole.segments[i]-whole.wide[i], whole.segments[i], cut.segments[i]-cut.wide[i], cut.segments[i], len(parts))
	}
	for i, h := range one.tree.Heights() {
		segs := float64(cut.segments[i]) / float64(whole.segments[i])
		tax := float64(cut.bytes(i)) / float64(whole.bytes(i))
		t.Logf("height %d: ×%.2f the segments, ×%.2f the bytes, %d bytes more", h, segs, tax, cut.bytes(i)-whole.bytes(i))
		if limit := []float64{2.15, 1.65, 1.12}[i]; tax > limit {
			t.Errorf("height %d: %d segment files hold %d bytes of it against %d in one file: ×%.2f, want at most ×%.2f",
				h, len(parts), cut.bytes(i), whole.bytes(i), tax, limit)
		}
		if limit, more := []int{131_000, 8_500, 790}[i], cut.bytes(i)-whole.bytes(i); more > limit {
			t.Errorf("height %d: %d segment files hold %d bytes of it, %d more than one file; want at most %d more",
				h, len(parts), cut.bytes(i), more, limit)
		}
	}
}

// taxLayout builds the benchmark's stream as one detector and as the
// segments of its base store: twelve of 50 000 elements, as SealEvents cuts
// it, and the remainder.
func taxLayout(t testing.TB) (one *Detector, parts []*Detector) {
	t.Helper()
	elems := benchmarkStream(t)
	const sealEvents = 50_000
	one, err := New(1024, WithPBE2(8))
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(elems); lo += sealEvents {
		part, err := New(1024, WithPBE2(8))
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range elems[lo:min(lo+sealEvents, len(elems))] {
			part.Append(el.Event, el.Time)
			one.Append(el.Event, el.Time)
		}
		part.Finish()
		parts = append(parts, part)
	}
	one.Finish()
	return one, parts
}

// TestBytesByLevelSums holds the split of Bytes() by level and field to the
// total, on the three files TestSaveBytesUnchanged pins and on the benchmark
// stream as one detector and as its base store's thirteen segments, and logs
// the lines of every fixture summed over its detectors. A level's cells lie
// end to end in one array, so its slack line is the few bytes its last
// cell's loads read past the fields, at most 8; beside it the log gives what
// the cells' slack would be, each in columns of its own (on the thirteen
// segments, 27 519 B before the levels were laid, and 83 after).
func TestBytesByLevelSums(t *testing.T) {
	check := func(name string, dets ...*Detector) {
		t.Helper()
		var sum []levelSplit
		var own []int // each height's cells' slack, were each cell's columns its own; −1 past a Count-Min level
		for _, det := range dets {
			levels, total := det.bytesByLevel(), 0
			if own == nil {
				own = make([]int, len(levels))
			}
			for i, l := range levels {
				p := l.Split
				if p.Starts < 0 || p.Lengths < 0 || p.Values < 0 || p.Slopes < 0 || p.Escaped < 0 || p.Slack < 0 {
					t.Errorf("%s: height %d has a negative line: %+v", name, l.Height, p)
				}
				if p.Slack > 8 {
					t.Errorf("%s: height %d reads %d bytes of slack, more than a level's last cell reads past its fields", name, l.Height, p.Slack)
				}
				if lvl := det.tree.Level(i).(*cmpbe.Sketch); !lvl.CollisionFree() {
					own[i] = -1 // EventCells reaches a Count-Min level's cells only by id
				} else if own[i] >= 0 {
					_, ids := lvl.Dims()
					for e := range uint64(ids) {
						own[i] += lvl.EventCells(e)[0].Split().Slack
					}
				}
				total += p.Total()
				if len(sum) < len(levels) {
					sum = append(sum, l)
				} else {
					sum[i].Split = sum[i].Add(p)
				}
			}
			if want := det.Bytes(); total != want {
				t.Errorf("%s: the lines sum to %d, Bytes() is %d", name, total, want)
			}
		}
		for i, l := range sum {
			apart := ""
			if own[i] >= 0 {
				apart = fmt.Sprintf(" (cells apart: %d)", own[i])
			}
			t.Logf("%s height %d: starts %d, lengths %d, values %d, slopes %d, escaped %d, slack %d%s",
				name, l.Height, l.Starts, l.Lengths, l.Values, l.Slopes, l.Escaped, l.Slack, apart)
		}
	}
	check("olympicrio K=1024", rioDetector(t, 5, 60_000, 1024, WithPBE2(8)))
	check("K=16384 with Count-Min levels", rioDetector(t, 6, 30_000, 1<<14, WithPBE2(4)))
	parts, _, _ := buildDecayParts(t, 4, decayOpts()...)
	ds, err := DownsampleDetectors(parts, 16, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	check("downsampled merge of four parts", ds)
	one, cut := taxLayout(t)
	check("benchmark stream, one detector", one)
	check("benchmark stream, 13 segments", cut...)
}

// levelBytes breaks the levels of detectors over K = 1024 (collision-free
// levels only) down into what their files spend where, summed per level over
// the detectors added: the level's own header, the cell block's header,
// bitmap and per-cell columns, and the segment records.
type levelBytes struct {
	cells, segments, wide, header, columns, records []int
}

// lineBytes returns what each of a cell's segments takes in a cell block
// past its gap and length, in the form the cell holds it: its slope at the
// cell's width — the top bytes of the float32, or of the escape marker, up
// to the lowest that is not zero in any of them, and 2 where that is the top
// byte alone — then 16 bytes of two float64 for a segment escaped whole, 8
// for a float64 value in a cell of float64 values, or the varint of its
// value's 2⁻⁸ counts in a grid cell. It replays the forms as the cell
// appended them: a slope no float32 holds escapes; a value past ±2⁵⁵ counts
// takes the cell to float64; a value off the grid escapes while fewer than a
// sixth of the cell's segments before it, or fewer than three, have
// escaped, and takes the cell to float64 after that. wide counts the lines
// not on the grid.
func lineBytes(segs []pbe2.Segment) (lines []int, wide int) {
	escaped, float := make([]bool, len(segs)), false
	e := 0
	for i, s := range segs {
		k := s.Y * 256
		switch {
		case float64(float32(s.A)) != s.A:
			escaped[i] = true
		case float:
		case k < -(1<<63) || k >= 1<<63:
			float = true
		case k == math.Trunc(k):
		case 6*e < max(i, 18):
			escaped[i] = true
		default:
			float = true
		}
		if escaped[i] {
			e++
		}
	}
	aw := 0
	for i, s := range segs {
		bits := math.Float32bits(float32(s.A))
		if escaped[i] {
			bits = 0x7fc00000
		}
		w := 4
		for ; w > 0 && bits&0xff == 0; w-- {
			bits >>= 8
		}
		if w == 1 {
			w = 2
		}
		aw = max(aw, w)
	}
	var scratch [binary.MaxVarintLen64]byte
	for i, s := range segs {
		switch {
		case escaped[i]:
			lines = append(lines, aw+16)
		case float:
			lines = append(lines, aw+8)
		default:
			lines = append(lines, aw+binary.PutVarint(scratch[:], int64(s.Y*256)))
		}
		if escaped[i] || float {
			wide++
		}
	}
	return lines, wide
}

// bytes returns what level i costs in the files added.
func (lb *levelBytes) bytes(i int) int { return lb.header[i] + lb.columns[i] + lb.records[i] }

func (lb *levelBytes) add(t testing.TB, det *Detector) {
	t.Helper()
	n := det.tree.Levels()
	if lb.cells == nil {
		lb.cells, lb.segments, lb.wide, lb.header = make([]int, n), make([]int, n), make([]int, n), make([]int, n)
		lb.columns, lb.records = make([]int, n), make([]int, n)
	}
	for i := 0; i < n; i++ {
		l := det.tree.Level(i).(*cmpbe.Sketch)
		_, ids := l.Dims()
		if !l.CollisionFree() {
			t.Fatalf("level %d is a Count-Min sketch; the per-id walk needs a cell per id", i)
		}
		var w binenc.Writer
		if err := l.Encode(&w); err != nil {
			t.Fatal(err)
		}
		block := bytes.Index(w.Bytes(), []byte("P2B\x05"))
		if block < 0 {
			t.Fatal("level holds no PBE-2 cell block")
		}
		records := 0
		for e := uint64(0); e < uint64(ids); e++ {
			prevEnd := l.MaxTime()
			segs := l.EventCells(e)[0].Segments()
			lines, wide := lineBytes(segs)
			for j, s := range segs {
				var scratch [binary.MaxVarintLen64]byte
				if j == 0 {
					records += binary.PutVarint(scratch[:], s.Start-prevEnd)
				} else {
					records += binary.PutUvarint(scratch[:], uint64(s.Start-prevEnd))
				}
				records += binary.PutUvarint(scratch[:], uint64(s.End-s.Start)) + lines[j]
				prevEnd = s.End
			}
			lb.segments[i] += len(segs)
			lb.wide[i] += wide
		}
		lb.cells[i] += ids
		lb.header[i] += block
		lb.records[i] += records
		lb.columns[i] += len(w.Bytes()) - block - records
	}
}

// heapHeld returns how much live heap the value make returns pins: HeapAlloc
// after it is built minus before, each read behind two collections so that
// neither garbage nor a finalizer round is counted.
func heapHeld(build func() any) (held uint64, v any) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v = build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0, v
	}
	return after.HeapAlloc - before.HeapAlloc, v
}

// TestBytesTracksHeap holds Bytes() to what a sealed detector really keeps
// alive: built and finished, and decoded from its file, the live heap exceeds
// the counted bytes by at most a fixed cost per cell — the pbe2.Builder
// struct (152 B: a 144-B pbe2.Summary and the pointer to its open window),
// its interface slot and the allocator's rounding of its columns, which
// Bytes() documents it leaves out. The stream is the
// benchmark's 600 k elements over 1 092 cells (heights 0, 4, 8).
//
// The bound was a ratio, heap ≤ 1.4 × Bytes(), while the payload dwarfed the
// structs: 1.19× over eleven levels (PR 24), 1.31× over three (PR 25: 0.83 MB
// counted, 1.08 MB held), 1.30× decoded (PR 26). With the steering levels
// under 4γ the payload is 0.36 MB and the heap 0.59 MB — 1.64×, every byte of
// the payload's saving kept and the same ~0.23 MB of structs beside it — so
// the ratio now measures the denominator. What must hold is stated directly:
// the overhead per cell, and a heap no larger than it was. Not parallel: it
// reads process-wide heap statistics.
//
// With each level's columns laid end to end in one array (pbe2.Lay) the
// built detector holds what the decoded one does, and no per-cell
// allocation's rounding: 157 B a cell beyond the count decoded, 164–185 B
// built in 12 runs (the engines of the last open windows, pooled, are some
// of it), where it was 156 and 174–194 with each cell's columns its own.
// The bound is the largest of those, 185, and 15 B of margin.
func TestBytesTracksHeap(t *testing.T) {
	const (
		perCellHeap = 200       // bytes a cell may hold beyond its counted segments
		parentHeap  = 1_080_000 // what the same detector held before the steering levels loosened
	)
	check := func(what string, build func() any) *Detector {
		held, v := heapHeld(build)
		det := v.(*Detector)
		counted, cells := det.Bytes(), 0
		for i := 0; i < det.tree.Levels(); i++ {
			_, ids := det.tree.Level(i).(*cmpbe.Sketch).Dims()
			cells += ids
		}
		t.Logf("%s: Bytes() = %d, heap = %d (%.2f×), %d B beyond the count per cell over %d cells",
			what, counted, held, float64(held)/float64(counted), (int(held)-counted)/cells, cells)
		if int(held) > counted+cells*perCellHeap {
			t.Errorf("%s detector holds %d heap bytes against Bytes() = %d: %d beyond the count, want at most %d B × %d cells",
				what, held, counted, int(held)-counted, perCellHeap, cells)
		}
		if held > parentHeap {
			t.Errorf("%s detector holds %d heap bytes, more than the %d it held with every level under γ", what, held, parentHeap)
		}
		return det
	}
	// Each measurement in its own frame, so the previous detector is garbage
	// by the time the next baseline is read.
	file := func() []byte {
		det := check("built", func() any { return rioDetector(t, 1, 600_000, 1024, WithPBE2(8)) })
		var buf bytes.Buffer
		if err := det.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	check("decoded", func() any {
		det, err := Decode(file)
		if err != nil {
			t.Fatal(err)
		}
		return det
	})
	runtime.KeepAlive(file) // or the input dies mid-measurement and is subtracted
}

// TestDecodeAllocs: decoding allocates per level, not per cell — one array of
// cells and three of segment columns each, whatever the cell count (3 874
// allocations for the K = 1024 file when every cell was decoded on its own).
func TestDecodeAllocs(t *testing.T) {
	for name, det := range map[string]*Detector{
		"K=1024":                        rioDetector(t, 5, 60_000, 1024, WithPBE2(8)),
		"K=16384 with Count-Min levels": rioDetector(t, 6, 30_000, 1<<14, WithPBE2(4)),
	} {
		var buf bytes.Buffer
		if err := det.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(5, func() {
			if _, err := Decode(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}); got > 100 {
			t.Errorf("%s: Decode allocates %.0f times for %d levels, want at most 100", name, got, det.tree.Levels())
		} else {
			t.Logf("%s: %.0f allocations for %d levels", name, got, det.tree.Levels())
		}
	}
}

var decodeSink *Detector

// BenchmarkDetectorDecode is what a segment's first touch and a restart pay:
// the benchmark's 600 k-element K = 1024 file into a detector. heap-B/seg is
// the live heap one decoded detector pins per closed PBE-2 segment — the
// payload Bytes() counts, some 13 B, and the per-cell structs and the
// allocator's rounding beside it.
func BenchmarkDetectorDecode(b *testing.B) {
	det := rioDetector(b, 1, 600_000, 1024, WithPBE2(8))
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	segments := 0
	for i := 0; i < det.tree.Levels(); i++ {
		l := det.tree.Level(i).(*cmpbe.Sketch)
		if !l.CollisionFree() {
			b.Fatalf("level %d is a Count-Min sketch; the count walks a cell per id", i)
		}
		_, ids := l.Dims()
		for e := uint64(0); e < uint64(ids); e++ {
			segments += l.EventCells(e)[0].NumSegments()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = d
	}
	b.StopTimer()
	decodeSink = nil
	held, v := heapHeld(func() any {
		d, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		return d
	})
	b.ReportMetric(float64(held)/float64(segments), "heap-B/seg")
	runtime.KeepAlive(v)
	runtime.KeepAlive(data)
}

// TestDetectorLevelsLaid: every path that makes a detector — building and
// Finish, MergeDetectors, DownsampleDetectors and Decode — leaves each of
// its levels laid, its cells end to end in one array whose length and
// escaped lines are the level's Bytes() (cmpbe's TestLevelLaidInOneArray
// holds the array to that), the slack only what the last cell's loads read.
func TestDetectorLevelsLaid(t *testing.T) {
	parts, _, _ := buildDecayParts(t, 4, decayOpts()...)
	merged, err := MergeDetectors(parts)
	if err != nil {
		t.Fatal(err)
	}
	downsampled, err := DownsampleDetectors(parts, 16, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	built := rioDetector(t, 5, 60_000, 1<<14, WithPBE2(4))
	var file bytes.Buffer
	if err := built.Save(&file); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		det  *Detector
	}{{"built", built}, {"a part", parts[0]}, {"merged", merged}, {"downsampled", downsampled}, {"decoded", decoded}} {
		for i := range c.det.tree.Levels() {
			l := c.det.tree.Level(i).(*cmpbe.Sketch)
			p := l.Split()
			if !l.Laid() || p.Total() != l.Bytes() || p.Slack > 8 {
				t.Errorf("%s, level %d: laid %v, Bytes() %d, lines %+v", c.name, i, l.Laid(), l.Bytes(), p)
			}
		}
	}
	if built.Bytes() != decoded.Bytes() {
		t.Fatalf("built, the detector counts %d bytes, decoded %d", built.Bytes(), decoded.Bytes())
	}
}

// TestFinishBesideQueries: a Finish on a finished detector writes nothing,
// so it may run beside POINT and BURSTY-TIME queries; under the race
// detector a write to a level, its cells or their columns fails the test.
func TestFinishBesideQueries(t *testing.T) {
	det := rioDetector(t, 3, 20_000, 256, WithPBE2(4))
	lo, hi := det.MinTime(), det.MaxTime()
	tau := max((hi-lo)/40, 1)
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				e := uint64(g*40+i) % det.K()
				if _, err := det.Burstiness(e, lo+(hi-lo)*int64(i)/40, tau); err != nil {
					t.Error(err)
					return
				}
				if i%8 == 0 {
					if _, err := det.BurstyTimes(e, 3, tau); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for range 20 {
		det.Finish()
		det.Bytes()
	}
	wg.Wait()
}
