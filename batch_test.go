package histburst

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// appendPerElement is Detector.Append as it was before arrivals were
// chunked: stage clamps and counts, and the staged arrival goes straight
// through Tree.Append, the per-element twin dyadic.Tree.AppendBatch must stay
// byte-identical to. Detectors fed this way are the reference for every test
// in this file.
func appendPerElement(d *Detector, e uint64, t int64) {
	d.stage(e, t)
	for _, el := range d.pending {
		d.tree.Append(el.Event, el.Time)
	}
	d.pending = d.pending[:0]
}

// atEachProcs runs fn as one sub-test per GOMAXPROCS of 1, 2 and 4: the
// chunked construction fans out over GOMAXPROCS, and its byte identity and
// its readers' settle must hold at every fan-out, under the race detector
// too.
func atEachProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

func saveBytes(t testing.TB, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchStream generates n arrivals over ids that overshoot k (so folding is
// exercised) in one of three shapes: "ordered" advances time by 0–2 per
// arrival, "disordered" jitters each timestamp ±10 around an advancing
// clock so about half arrive behind the frontier and are clamped, "runs"
// holds each timestamp for 50 arrivals.
func batchStream(shape string, n int, k uint64, seed int64, from int64) stream.Stream {
	r := rand.New(rand.NewSource(seed))
	s := make(stream.Stream, n)
	cur := from
	for i := range s {
		t := cur
		switch shape {
		case "ordered":
			cur += int64(r.Intn(3))
			t = cur
		case "disordered":
			cur += int64(r.Intn(3))
			t = cur + int64(r.Intn(21)) - 10
		case "runs":
			if i%50 == 49 {
				cur += int64(1 + r.Intn(40))
			}
		default:
			panic("unknown shape " + shape)
		}
		s[i] = stream.Element{Event: uint64(r.Int63n(int64(k + k/8))), Time: t}
	}
	return s
}

// TestAppendBatchByteIdentity is the tentpole's contract: a detector fed
// through Detector.Append (chunked, level-major, fanned out over GOMAXPROCS
// — one sub-test each at 1, 2 and 4) saves to exactly the bytes of one fed element by
// element through Tree.Append, at every chunk boundary, for every cell and
// level kind, when arrivals are clamped, and when appending resumes after
// Finish.
func TestAppendBatchByteIdentity(t *testing.T) {
	atEachProcs(t, func(t *testing.T) {
		configs := []struct {
			name string
			k    uint64
			opts []Option
		}{
			{"K=1024 all collision-free", 1 << 10, []Option{WithPBE2(8)}},
			{"K=16384 Count-Min under collision-free", 1 << 14, []Option{WithPBE2(8)}},
		}
		sizes := []int{0, 1, pendingCap - 1, pendingCap, pendingCap + 1, 3*pendingCap + 7}
		for i, cfg := range configs {
			// Every shape on the benchmark's configuration; the others take the
			// one that both clamps and (by clamping) repeats timestamps, which
			// keeps the three sub-tests under the race detector under a minute.
			shapes := []string{"disordered"}
			if i == 0 {
				shapes = []string{"ordered", "disordered", "runs"}
			}
			for _, shape := range shapes {
				for _, n := range sizes {
					name := fmt.Sprintf("%s/%s/n=%d", cfg.name, shape, n)
					got, err := New(cfg.k, cfg.opts...)
					if err != nil {
						t.Fatal(err)
					}
					want, err := New(cfg.k, cfg.opts...)
					if err != nil {
						t.Fatal(err)
					}
					feed := func(s stream.Stream) {
						for _, el := range s {
							got.Append(el.Event, el.Time)
							appendPerElement(want, el.Event, el.Time)
						}
					}
					first := batchStream(shape, n, cfg.k, int64(n)+1, 0)
					feed(first)
					if shape == "disordered" && n > 100 && got.OutOfOrder() == 0 {
						t.Fatalf("%s: no arrival was clamped", name)
					}
					if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
						t.Fatalf("%s: chunked detector differs from per-element reference", name)
					}
					// Save finished both; appending resumes on closed windows.
					feed(batchStream(shape, pendingCap/2+3, cfg.k, int64(n)+2, got.MaxTime()))
					if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
						t.Fatalf("%s: differs after appending past Finish", name)
					}
					if got.pending != nil {
						t.Fatalf("%s: finished detector still holds its %d-slot chunk", name, cap(got.pending))
					}
				}
			}
		}
	})
}

// unsettledOpts gives the flush-before-read detectors Count-Min levels under
// collision-free ones at K = 64.
var unsettledOpts = []Option{WithPBE2(2), WithSketchDims(2, 4), WithSeed(5)}

// unsettledPair builds a detector through Append that still holds a
// part-filled chunk, and its per-element reference. The stream ends in an
// eight-tick burst of events 3 and 40 that sits wholly in the chunk, so a
// reader that skipped settle would miss it. With tail false everything
// ingested is still pending; with tail true one full chunk has reached the
// index.
func unsettledPair(t *testing.T, tail bool) (got, ref *Detector) {
	t.Helper()
	background := 300
	if tail {
		background = pendingCap
	}
	data := batchStream("ordered", background, 64, 61, 0)
	for tm := data[background-1].Time + 1; len(data) < background+136; tm++ {
		for j := 0; j < 17; j++ {
			e := uint64(3)
			if j >= 10 {
				e = 40
			}
			data = append(data, stream.Element{Event: e, Time: tm})
		}
	}
	var err error
	if got, err = New(64, unsettledOpts...); err != nil {
		t.Fatal(err)
	}
	if ref, err = New(64, unsettledOpts...); err != nil {
		t.Fatal(err)
	}
	for _, el := range data {
		got.Append(el.Event, el.Time)
		appendPerElement(ref, el.Event, el.Time)
	}
	if want := len(data) % pendingCap; len(got.pending) != want {
		t.Fatalf("chunk holds %d arrivals, want %d", len(got.pending), want)
	}
	return got, ref
}

// finishedPart is a finished detector of 200 arrivals from time from on.
func finishedPart(t *testing.T, from int64, opts ...Option) *Detector {
	t.Helper()
	d, err := New(64, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		d.Append(uint64(i%7), from+i)
	}
	d.Finish()
	return d
}

// eagerCounters are the exported methods that read only counters Append
// maintains eagerly, so they need not settle the chunk.
var eagerCounters = map[string]func(d *Detector) any{
	"K":          func(d *Detector) any { return d.K() },
	"Params":     func(d *Detector) any { return d.Params() },
	"N":          func(d *Detector) any { return d.N() },
	"MinTime":    func(d *Detector) any { return d.MinTime() },
	"MaxTime":    func(d *Detector) any { return d.MaxTime() },
	"OutOfOrder": func(d *Detector) any { return d.OutOfOrder() },
	"Envelope":   func(d *Detector) any { return d.Envelope(d.MaxTime()) },
}

// summaryReaders drives every exported method that reads, hands out or
// mutates the summary. Each runs once on the chunked detector and once on
// the per-element reference; the returned values must be deeply equal.
var summaryReaders = []struct {
	method string
	call   func(t *testing.T, d *Detector) any
}{
	{"Append", func(t *testing.T, d *Detector) any {
		d.Append(5, d.MaxTime()+1)
		return saveBytes(t, d)
	}},
	{"Finish", func(t *testing.T, d *Detector) any {
		d.Finish()
		if d.pending != nil {
			t.Error("Finish kept the chunk")
		}
		return []any{d.base.N(), d.tree.Bytes()}
	}},
	{"Burstiness", func(t *testing.T, d *Detector) any {
		var out []float64
		for e := uint64(0); e < 64; e += 3 {
			for _, back := range []int64{0, 1, 8, 100} {
				b, err := d.Burstiness(e, d.MaxTime()-back, 8)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, b)
			}
		}
		return out
	}},
	{"BurstyTimes", func(t *testing.T, d *Detector) any {
		var out [][]TimeRange
		for _, e := range []uint64{3, 40, 7} {
			r, err := d.BurstyTimes(e, 20, 8)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}},
	{"BurstyEvents", func(t *testing.T, d *Detector) any {
		out, err := d.BurstyEvents(d.MaxTime(), 20, 8)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}},
	{"TopBursty", func(t *testing.T, d *Detector) any {
		out, err := d.TopBursty(d.MaxTime(), 5, 8)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}},
	{"BurstinessOver", func(t *testing.T, d *Detector) any {
		var out []float64
		for e := uint64(0); e < 64; e += 3 {
			for _, back := range []int64{0, 1, 8, 100} {
				out = append(out, d.BurstinessOver(e, d.MaxTime()-back, pbe.MustSpan(8)))
			}
		}
		return out
	}},
	{"BurstyTimesOver", func(t *testing.T, d *Detector) any {
		var out [][]TimeRange
		for _, e := range []uint64{3, 40, 7} {
			r := d.BurstyTimesOver(e, timesTheta(20), pbe.MustSpan(8))
			out = append(out, r)
		}
		return out
	}},
	{"BurstyEventsOver", func(t *testing.T, d *Detector) any {
		out := d.BurstyEventsOver(d.MaxTime(), eventsTheta(20), pbe.MustSpan(8))
		return out
	}},
	{"TopBurstyOver", func(t *testing.T, d *Detector) any {
		out := d.TopBurstyOver(d.MaxTime(), 5, pbe.MustSpan(8))
		return out
	}},
	{"CumulativeFrequency", func(t *testing.T, d *Detector) any {
		var out []float64
		for e := uint64(0); e < 64; e += 5 {
			out = append(out, d.CumulativeFrequency(e, d.MaxTime()), d.CumulativeFrequency(e, d.MaxTime()/2))
		}
		return out
	}},
	{"EventIndex", func(t *testing.T, d *Detector) any {
		var st dyadic.QueryStats
		tr := d.EventIndex()
		out := tr.TopBursty(d.MaxTime(), 5, pbe.MustSpan(8), &st)
		return []any{tr.Level(0).(*cmpbe.Sketch).N(), tr.Bytes(), out, st}
	}},
	{"Bytes", func(t *testing.T, d *Detector) any { return d.Bytes() }},
	{"Save", func(t *testing.T, d *Detector) any { return saveBytes(t, d) }},
	{"SaveFile", func(t *testing.T, d *Detector) any {
		path := filepath.Join(t.TempDir(), "d.hbsk")
		if err := d.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
	{"Clone", func(t *testing.T, d *Detector) any {
		c, err := d.Clone()
		if err != nil {
			t.Fatal(err)
		}
		return saveBytes(t, c)
	}},
	{"MergeAppend", func(t *testing.T, d *Detector) any { // as the receiver
		if err := d.MergeAppend(finishedPart(t, d.MaxTime()+10, unsettledOpts...)); err != nil {
			t.Fatal(err)
		}
		return saveBytes(t, d)
	}},
	{"MergeAppend", func(t *testing.T, d *Detector) any { // as the absorbed part
		early := finishedPart(t, -1000, unsettledOpts...)
		if err := early.MergeAppend(d); err != nil {
			t.Fatal(err)
		}
		return saveBytes(t, early)
	}},
}

// TestFlushBeforeRead calls every exported *Detector method on a detector
// whose chunk is part-filled and requires the answer the per-element
// reference gives: a reader that skipped settle would answer from a summary
// missing up to pendingCap−1 arrivals. The reflection check makes a method
// added later choose a side.
func TestFlushBeforeRead(t *testing.T) {
	atEachProcs(t, func(t *testing.T) {
		for _, tail := range []bool{false, true} {
			for _, r := range summaryReaders {
				got, ref := unsettledPair(t, tail)
				if g, w := r.call(t, got), r.call(t, ref); !reflect.DeepEqual(g, w) {
					t.Errorf("%s (one chunk flushed: %v): chunked detector answered\n%v\nper-element reference\n%v", r.method, tail, g, w)
				}
			}
			got, ref := unsettledPair(t, tail)
			for name, call := range eagerCounters {
				if g, w := call(got), call(ref); !reflect.DeepEqual(g, w) {
					t.Errorf("%s (one chunk flushed: %v): %v, per-element reference %v", name, tail, g, w)
				}
			}
		}

		covered := map[string]bool{}
		for _, r := range summaryReaders {
			covered[r.method] = true
		}
		typ := reflect.TypeOf(&Detector{})
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if _, eager := eagerCounters[name]; !covered[name] && !eager {
				t.Errorf("exported method Detector.%s is in neither summaryReaders nor eagerCounters: "+
					"if it reads the summary it must call settle first and be driven here", name)
			}
		}
	})
}

// TestFlushBeforeReadConcurrentQueries pins the other half of the contract:
// on a finished detector settle finds an empty chunk and writes nothing, so
// any number of goroutines may query, Save and Clone it at once (the race
// detector is the judge) and all see the single-threaded answers.
func TestFlushBeforeReadConcurrentQueries(t *testing.T) {
	atEachProcs(t, func(t *testing.T) {
		det, _ := unsettledPair(t, false)
		det.Finish()
		answers := func() string {
			var sb strings.Builder
			for _, r := range summaryReaders {
				switch r.method {
				case "Burstiness", "BurstyTimes", "BurstyEvents", "TopBursty",
					"BurstinessOver", "BurstyTimesOver", "BurstyEventsOver", "TopBurstyOver",
					"CumulativeFrequency", "Bytes",
					"Save", "Clone": // the compactor clones sealed segments that are serving reads
					fmt.Fprintln(&sb, r.method, r.call(t, det))
				}
			}
			return sb.String()
		}
		want := answers()
		var wg sync.WaitGroup
		for g := 0; g < 64; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := answers(); got != want {
					t.Errorf("concurrent query answered\n%s\nwant\n%s", got, want)
				}
			}()
		}
		wg.Wait()
	})
}

// TestMergeSourcesMustBeSettled: MergeDetectors and DownsampleDetectors
// never mutate a source, so they cannot settle one — a part with arrivals
// still in its chunk (here 1, cap−1, and cap+1 of which one chunk reached the
// cells) is refused rather than merged without them, and accepted once
// finished.
func TestMergeSourcesMustBeSettled(t *testing.T) {
	opts := []Option{WithPBE2(2), WithSeed(5)} // all levels collision-free: frontier counts are exact
	for _, n := range []int{1, pendingCap - 1, pendingCap + 1} {
		first := finishedPart(t, 0, opts...)
		part, err := New(64, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range batchStream("ordered", n, 64, 3, 1000) {
			part.Append(el.Event, el.Time)
		}
		for _, parts := range [][]*Detector{{first, part}, {part}} {
			if _, err := MergeDetectors(parts); err == nil || !strings.Contains(err.Error(), "not finished") {
				t.Fatalf("n=%d: MergeDetectors with an unsettled part: %v", n, err)
			}
			if _, err := DownsampleDetectors(parts, 4, 2, 0); err == nil || !strings.Contains(err.Error(), "not finished") {
				t.Fatalf("n=%d: DownsampleDetectors with an unsettled part: %v", n, err)
			}
		}
		part.Finish()
		merged, err := MergeDetectors([]*Detector{first, part})
		if err != nil {
			t.Fatal(err)
		}
		if merged.N() != first.N()+int64(n) {
			t.Fatalf("n=%d: merged N = %d", n, merged.N())
		}
		var total float64
		for e := uint64(0); e < 64; e++ {
			total += merged.CumulativeFrequency(e, merged.MaxTime())
		}
		if total != float64(merged.N()) {
			t.Fatalf("n=%d: merged summary holds %v arrivals, N says %d", n, total, merged.N())
		}
		if _, err := DownsampleDetectors([]*Detector{first, part}, 4, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
}
