package histburst

import (
	"bytes"
	"crypto/sha256"
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
// are held in memory: the digests were computed on the commit before PBE-2's
// closed segments moved into columns (PR 24) and must never move for a
// layout's sake.
func TestSaveBytesUnchanged(t *testing.T) {
	t.Run("olympicrio K=1024", func(t *testing.T) {
		det := rioDetector(t, 5, 60_000, 1024, WithPBE2(8))
		if got, want := saveDigest(t, det), "e7a07a5cb4a6301c5be0be8724939c4082f50422b338f2d40962257e61e6ec22"; got != want {
			t.Fatalf("Save digest %s, want %s", got, want)
		}
	})
	t.Run("K=16384 with Count-Min levels", func(t *testing.T) {
		det := rioDetector(t, 6, 30_000, 1<<14, WithPBE2(4))
		if got, want := saveDigest(t, det), "05a7eb871e1959b0a61513cd67d13e5fc3557c5c679efc2282d8ecef76a1d902"; got != want {
			t.Fatalf("Save digest %s, want %s", got, want)
		}
	})
	t.Run("downsampled merge of four parts", func(t *testing.T) {
		parts, _, _ := buildDecayParts(t, 4, decayOpts()...)
		ds, err := DownsampleDetectors(parts, 16, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := saveDigest(t, ds), "107495e7fab1167ce81d10a7c2ef9ffc868507b6cd6416c7c6382ffc1d803e51"; got != want {
			t.Fatalf("Save digest %s, want %s", got, want)
		}
	})
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
// within 1.3× of the counted bytes — the rest being the per-cell structs
// Bytes() documents it leaves out. (1.75× and 1.44× before PR 24, when every
// closed segment was held in 40 bytes, counted as 32, in arrays append had
// grown by doubling.) The stream is the benchmark's 600 k elements: the
// structs are a fixed ~0.4 MB at K = 1024, so a shorter history sits higher
// (1.43× at 200 k) without holding a wasted byte more. Not parallel: it reads
// process-wide heap statistics.
func TestBytesTracksHeap(t *testing.T) {
	check := func(what string, build func() any) *Detector {
		held, v := heapHeld(build)
		det := v.(*Detector)
		counted := det.Bytes()
		t.Logf("%s: Bytes() = %d, heap = %d (%.2f×)", what, counted, held, float64(held)/float64(counted))
		if float64(held) > 1.3*float64(counted) {
			t.Errorf("%s detector holds %d heap bytes against Bytes() = %d (%.2f×), want at most 1.3×",
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
