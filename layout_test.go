package histburst

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"runtime"
	"testing"

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
// were re-pinned when the file itself changed — HBD3 holds the event index's
// kept levels only, under a new magic and a height list (PR 25) — and
// TestKeptLevelsByteIdentical carries the pin across that change: each level
// HBD3 holds is, byte for byte, the level HBD2 held at that height.
func TestSaveBytesUnchanged(t *testing.T) {
	t.Run("olympicrio K=1024", func(t *testing.T) {
		det := rioDetector(t, 5, 60_000, 1024, WithPBE2(8))
		if got, want := saveDigest(t, det), "9fda82ee3242f78531e6a12501ebc278e1fb707afa5e58f784912950d49135c6"; got != want {
			t.Fatalf("Save digest %s, want %s", got, want)
		}
	})
	t.Run("K=16384 with Count-Min levels", func(t *testing.T) {
		det := rioDetector(t, 6, 30_000, 1<<14, WithPBE2(4))
		if got, want := saveDigest(t, det), "cb9136fb080cb842cc7031694d08e88aa8710f31545eeb1b3401d201dcc7baeb"; got != want {
			t.Fatalf("Save digest %s, want %s", got, want)
		}
	})
	t.Run("downsampled merge of four parts", func(t *testing.T) {
		parts, _, _ := buildDecayParts(t, 4, decayOpts()...)
		ds, err := DownsampleDetectors(parts, 16, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := saveDigest(t, ds), "68ef7990d3cfd9433c4e2cd21f1cb5cd3717447f8f206510c484900fb3cc6338"; got != want {
			t.Fatalf("Save digest %s, want %s", got, want)
		}
	})
}

// TestKeptLevelsByteIdentical pins what thinning the event index must not
// touch: a kept level is built from the same (height, ids, seed) whatever
// other levels exist, so its serialized bytes are the ones the level at that
// height had when the index kept every height. The digests were computed on
// the last commit that did (PR 24), over TestSaveBytesUnchanged's detectors.
func TestKeptLevelsByteIdentical(t *testing.T) {
	for _, c := range []struct {
		name string
		det  *Detector
		want map[int]string // height → SHA-256 of the level's MarshalBinary
	}{
		{"olympicrio K=1024", rioDetector(t, 5, 60_000, 1024, WithPBE2(8)), map[int]string{
			0: "c033ef1c4214f792e7fa7f55e627740437df295ab41cfcc607dcd53c177aeb2f",
			4: "a0ece556bf1ce2c3563f4a391948190ba19aac051fea018f47a8e8d68e58ccab",
			8: "e653d4f283ac1fdeb02ad820c485dd29e6544c2c8918cb49f13306c5623eb537",
		}},
		{"K=16384 with Count-Min levels", rioDetector(t, 6, 30_000, 1<<14, WithPBE2(4)), map[int]string{
			0:  "a3acbe6f014f999c9c3f4c920fc0971a6f4025aa071af13db7023dad40f7cb18",
			1:  "713b2d3101745b03707b239e5576970b3a2b8b127bcdc24feabb20d13a5110b5",
			2:  "b8b18f6cbf3a0ada790d61080a585aa76510698dd4a95dcc1995a609524aaee4",
			3:  "ebad148eaa94fc318f712f4f9b80b2602e65c88895789ae8d336519b734285f5",
			4:  "6ef70ff3ba38ee8d461dd8093f5019be4f995dcec50dc085571ee2fac305393f",
			8:  "21360f720ee4e3f9b5f6a34e0b45378fd7cb2814f6126a3c10cfb108256f4a68",
			12: "354bf03969d04beddbaf18be8f86667703822abb53d4f1f28738d03fbed11a65",
		}},
	} {
		heights := c.det.tree.Heights()
		if len(heights) != len(c.want) {
			t.Fatalf("%s: index keeps heights %v, want the %d pinned ones", c.name, heights, len(c.want))
		}
		for i, h := range heights {
			blob, err := c.det.tree.Level(i).(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != c.want[h] {
				t.Errorf("%s: level at height %d digests to %s, pinned %q", c.name, h, got, c.want[h])
			}
		}
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
// alive: built and finished, and decoded from its file, the live heap is
// within 1.4× of the counted bytes — the rest being the per-cell structs
// Bytes() documents it leaves out. (1.75× and 1.44× before PR 24, when every
// closed segment was held in 40 bytes, counted as 32, in arrays append had
// grown by doubling; 1.19× after it, over an index of eleven levels.) The
// stream is the benchmark's 600 k elements. With three kept levels (PR 25)
// Bytes() is 0.83 MB and the heap 1.08 MB, 1.31×: the structs are a fixed
// cost per cell, now 1 092 cells instead of 2 047 and so ~0.25 MB instead of
// ~0.4 MB, but a larger share of a summary a quarter the size — what packing
// a sealed level's cells into shared arrays would remove. Not parallel: it
// reads process-wide heap statistics.
func TestBytesTracksHeap(t *testing.T) {
	check := func(what string, build func() any) *Detector {
		held, v := heapHeld(build)
		det := v.(*Detector)
		counted := det.Bytes()
		t.Logf("%s: Bytes() = %d, heap = %d (%.2f×)", what, counted, held, float64(held)/float64(counted))
		if float64(held) > 1.4*float64(counted) {
			t.Errorf("%s detector holds %d heap bytes against Bytes() = %d (%.2f×), want at most 1.4×",
				what, held, counted, float64(held)/float64(counted))
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

var decodeSink *Detector

// BenchmarkDetectorDecode is what a segment's first touch and a restart pay:
// the benchmark's 600 k-element K = 1024 file into a detector. heap-B/seg is
// the live heap one decoded detector pins per closed PBE-2 segment — 28 of it
// payload, the rest the per-cell structs and the allocator's rounding.
func BenchmarkDetectorDecode(b *testing.B) {
	det := rioDetector(b, 1, 600_000, 1024, WithPBE2(8))
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	segments := det.Bytes() / 28
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
