package histburst

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// forgedLevel is one level of a forged index: a height and the summary that
// claims to stand there.
type forgedLevel struct {
	height int
	level  dyadic.Level
}

// forgeIndexFile writes det's header over an index assembled from the given
// levels, under a valid checksum: a file only the decoder's shape checks can
// refuse.
func forgeIndexFile(t testing.TB, det *Detector, levels []forgedLevel) []byte {
	t.Helper()
	var w binenc.Writer
	w.BytesBlob([]byte{'D', 'Y', 'A', 3})
	w.Uvarint(det.K())
	w.Varint(det.n)
	w.Varint(det.maxT)
	w.Uvarint(uint64(len(levels)))
	for _, l := range levels {
		w.Uvarint(uint64(l.height))
	}
	for _, l := range levels {
		if err := l.level.(*cmpbe.Sketch).Encode(&w); err != nil {
			t.Fatal(err)
		}
	}
	return sealed(encodeHeader(det, detectorMagic, w.Bytes()))
}

// sealed appends the checksum footer Save ends a file with.
func sealed(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTable))
}

// shapeFixture builds finished detectors over one small stream: the victim
// whose file is forged and donors whose levels are spliced into it.
func shapeFixture(t testing.TB, k uint64, opts ...Option) *Detector {
	t.Helper()
	det, err := New(k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 400; i++ {
		det.Append(uint64(i*37)%1024, 10+i)
	}
	det.Finish()
	return det
}

// ownLevels lists a detector's index as forgeIndexFile takes it.
func ownLevels(det *Detector) []forgedLevel {
	levels := make([]forgedLevel, det.tree.Levels())
	for i, h := range det.tree.Heights() {
		levels[i] = forgedLevel{h, det.tree.Level(i)}
	}
	return levels
}

// wrongLeafFile is a K = 1024 detector file whose leaf level has 512 cells.
// The decoder took it until PR 25 — it compared only the level count with
// lg K — and then served ids 700 and 188 from one cell, folded by modulo.
func wrongLeafFile(t testing.TB) []byte {
	victim := shapeFixture(t, 1024, WithPBE2(2))
	levels := ownLevels(victim)
	levels[0].level = shapeFixture(t, 512, WithPBE2(2)).tree.Level(0)
	return forgeIndexFile(t, victim, levels)
}

// TestLoadRejectsWrongLevelShape: a checksum proves the bytes are the ones
// written, not that they are an index. Every level is held to its height —
// the search addresses a node's children as agg·2^Δh + j — and the height
// list to the kept set; each refusal names the level.
func TestLoadRejectsWrongLevelShape(t *testing.T) {
	direct := shapeFixture(t, 1024, WithPBE2(2))
	if _, err := Decode(forgeIndexFile(t, direct, ownLevels(direct))); err != nil {
		t.Fatalf("fixture: the forger's rendering of an untouched index does not load: %v", err)
	}
	leafOf := func(k uint64) dyadic.Level {
		return shapeFixture(t, k, WithPBE2(2)).tree.Level(0)
	}
	// A k-cell level under the γ the victims' levels from height 4 up are
	// held to.
	steerOf := func(k uint64) dyadic.Level {
		return shapeFixture(t, k, WithPBE2(dyadic.SteerGammaFactor*2)).tree.Level(0)
	}
	// 2×8 = 16 cells: Count-Min at heights 0–5, collision-free from 6.
	sketched := shapeFixture(t, 1024, WithPBE2(2), WithSketchDims(2, 8), WithSeed(3))
	if got := sketched.tree.Heights(); len(got) != 8 || got[6] != 6 || got[7] != 10 {
		t.Fatalf("fixture: 2×8 index over 1024 ids keeps %v", got)
	}
	reseeded := shapeFixture(t, 1024, WithPBE2(2), WithSketchDims(2, 8), WithSeed(4))
	widened := shapeFixture(t, 1024, WithPBE2(2), WithSketchDims(2, 16), WithSeed(3))

	for _, c := range []struct {
		name   string
		victim *Detector
		forge  func(levels []forgedLevel) []forgedLevel
		want   string
	}{
		{"a 512-cell leaf level under K = 1024", direct, func(l []forgedLevel) []forgedLevel {
			l[0].level = leafOf(512)
			return l
		}, "dyadic: level 0 (height 0) has 512 cells for 1024 aggregate ids"},
		{"a top level twice too wide", direct, func(l []forgedLevel) []forgedLevel {
			l[2].level = steerOf(8)
			return l
		}, "dyadic: level 2 (height 8) has 8 cells for 4 aggregate ids"},
		{"a height-4 level under the leaf's γ", direct, func(l []forgedLevel) []forgedLevel {
			l[1].level = leafOf(64)
			return l
		}, "dyadic: level 1: cmpbe: cells under gamma 2 in a level under gamma 8"},
		{"a leaf level under the steering γ", direct, func(l []forgedLevel) []forgedLevel {
			l[0].level = steerOf(1024)
			return l
		}, "dyadic: level 0: cmpbe: cells under gamma 8 in a level under gamma 2"},
		{"every height, each level the right size", direct, func([]forgedLevel) []forgedLevel {
			var l []forgedLevel
			for h := 0; h < 4; h++ {
				l = append(l, forgedLevel{h, leafOf(1024 >> h)})
			}
			for h := 4; h <= 10; h++ {
				l = append(l, forgedLevel{h, steerOf(1024 >> h)})
			}
			return l
		}, "keeps [0 4 8]"},
		{"the kept heights shifted by one", direct, func([]forgedLevel) []forgedLevel {
			return []forgedLevel{{0, leafOf(1024)}, {1, leafOf(512)}, {5, steerOf(32)}, {9, steerOf(2)}}
		}, "keeps [0 4 8]"},
		{"no leaf level", direct, func(l []forgedLevel) []forgedLevel { return l[1:] },
			"dyadic: the leaf level (height 0) must be kept"},
		{"a Count-Min level under another seed", sketched, func(l []forgedLevel) []forgedLevel {
			l[2].level = reseeded.tree.Level(2)
			return l
		}, "dyadic: level 2 (height 2) is a 2×8 sketch seeded"},
		{"a Count-Min level of another width", sketched, func(l []forgedLevel) []forgedLevel {
			l[1].level = widened.tree.Level(1)
			return l
		}, "dyadic: level 1 (height 1) is a 2×16 sketch"},
		{"a Count-Min level above a collision-free one", sketched, func(l []forgedLevel) []forgedLevel {
			l[6], l[7] = forgedLevel{6, steerOf(16)}, forgedLevel{7, sketched.tree.Level(5)}
			return l
		}, "dyadic: level 7 (height 7) is a Count-Min sketch above a collision-free level"},
		{"a Count-Min level where the ids fit collision-free", sketched, func(l []forgedLevel) []forgedLevel {
			// Height 6 has 16 ids for 16 cells; a sketch seeded for it.
			s, err := cmpbe.New(2, 8, 3+6*7919, dyadic.SteerGammaFactor*2)
			if err != nil {
				t.Fatal(err)
			}
			l[6].level = s
			return l
		}, "dyadic: level 6 (height 6) is a 2×8 sketch over 16 aggregate ids, which fit collision-free"},
		{"a whole index built under another seed", sketched, func([]forgedLevel) []forgedLevel {
			return ownLevels(reseeded)
		}, "leaf level is a 2×8 sketch seeded 4 under a 2×8 configuration seeded 3"},
	} {
		data := forgeIndexFile(t, c.victim, c.forge(ownLevels(c.victim)))
		if _, err := Inspect(data); err != nil {
			t.Fatalf("%s: fixture: the header-only verifier rejects the forged file: %v", c.name, err)
		}
		_, err := Decode(data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// benchmarkStream is the benchmark's base stream at seed 1: olympicrio's
// scenario, 600 k arrivals over a month.
func benchmarkStream(t testing.TB) stream.Stream {
	t.Helper()
	spec := workload.OlympicRioSpec(2016, 600_000)
	spec.Seed = 1
	data, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSparseSupersetOfBinary: on the benchmark's stream and query grid the
// kept-levels index reports every id the every-level index (Algorithm 3's
// binary walk, its levels under the same two γs) reports. Both end at the
// same leaf level and leaf filter — the same bytes, checked below — so they
// can differ only in the path there, and a sixteen-way node never prunes
// above a qualifying leaf at the last step (Σ b_c² ≥ b_e²); fewer prune
// decisions on the way down is where the recall comes from.
func TestSparseSupersetOfBinary(t *testing.T) {
	elems := benchmarkStream(t)
	det, err := New(1024, WithPBE2(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range elems {
		det.Append(el.Event, el.Time)
	}
	det.Finish()
	every, err := dyadic.New(1024, dyadic.CMPBELevelsEvery(1, 5, 272, 1, 8, dyadic.SteerGammaFactor*8))
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range elems {
		every.Append(el.Event, el.Time)
	}
	every.Finish()
	// A kept level is built from the same (height, ids, seed) whatever other
	// levels exist: byte for byte the level the every-height index holds there.
	for i, h := range det.tree.Heights() {
		var kept, all binenc.Writer
		if err := det.tree.Level(i).(*cmpbe.Sketch).Encode(&kept); err != nil {
			t.Fatal(err)
		}
		if err := every.Level(h).(*cmpbe.Sketch).Encode(&all); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept.Bytes(), all.Bytes()) {
			t.Fatalf("the kept level at height %d is not the every-level index's level there", h)
		}
	}

	const tau, queries = 86_400, 256
	theta := float64(len(elems)) / 5000
	frontier := elems[len(elems)-1].Time
	binaryFound, keptFound := 0, 0
	for i := 0; i < queries; i++ {
		ts := 2*tau + (frontier-2*tau)*int64(i)/queries
		want, err := every.BurstyEvents(ts, theta, tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := det.BurstyEvents(ts, theta, tau)
		if err != nil {
			t.Fatal(err)
		}
		reported := make(map[uint64]bool, len(got))
		for _, e := range got {
			reported[e] = true
		}
		for _, e := range want {
			if !reported[e] {
				t.Fatalf("t=%d: the every-level index reports %d, the kept-levels index does not (%v vs %v)", ts, e, want, got)
			}
		}
		binaryFound += len(want)
		keptFound += len(got)
	}
	t.Logf("%d queries: every level reports %d (event, instant) pairs, kept levels %d", queries, binaryFound, keptFound)
	if binaryFound == 0 || keptFound <= binaryFound {
		t.Fatalf("every level found %d pairs, kept levels %d: want some, and strictly more", binaryFound, keptFound)
	}
}

// TestBurstyEventsAllocs: the search over a finished detector allocates its
// result and nothing else — no box per queued node (container/heap's any),
// no slice per expansion.
func TestBurstyEventsAllocs(t *testing.T) {
	det := rioDetector(t, 1, 200_000, 1024, WithPBE2(8))
	const tau = 86_400
	ts := det.MaxTime() / 2
	theta := 40.0
	found, err := det.tree.BurstyEvents(ts, theta, tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("fixture: nothing bursty at the probed instant; the walk would stop at the root")
	}
	growths := 0 // appends that outgrow the result slice: 1, 2, 4, …
	for c := 0; c < len(found); c = max(1, 2*c) {
		growths++
	}
	var stats dyadic.QueryStats
	if got := testing.AllocsPerRun(50, func() {
		if _, err := det.tree.BurstyEvents(ts, theta, tau, &stats); err != nil {
			t.Fatal(err)
		}
	}); int(got) > growths {
		t.Errorf("BurstyEvents allocates %.0f times for %d results, want at most the %d growths of the result", got, len(found), growths)
	}
	if stats.PointQueries == 0 || stats.Pruned == 0 {
		t.Fatalf("fixture: the walk did no work: %+v", stats)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := det.tree.TopBursty(ts, 5, tau, &stats); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("TopBursty allocates %.0f times, want 1 (the result)", got)
	}
	// The facade adds its own copy of the ranking and nothing more.
	if got := testing.AllocsPerRun(50, func() {
		if _, err := det.TopBursty(ts, 5, tau); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("Detector.TopBursty allocates %.0f times, want 2", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := det.BurstyEvents(ts, theta, tau); err != nil {
			t.Fatal(err)
		}
	}); int(got) > growths {
		t.Errorf("Detector.BurstyEvents allocates %.0f times for %d results, want at most %d", got, len(found), growths)
	}
}

// TestLeafAnswersUnmoved: loosening the steering levels moves no number a
// caller reads, by construction and bit for bit. One stream is built twice —
// by the production factory and with every kept level under the leaf's γ, the
// index as it was before dyadic.SteerGammaFactor — at time origins 0 and
// 1.7·10⁹, over a collision-free index and over one with Count-Min levels
// (two of them, heights 4 and 5, loosened). The leaf levels encode to the same
// bytes; POINT, BURSTY-TIME and cumulative-frequency answers are equal;
// TopBursty's scores are the leaf's; and every id BURSTY-EVENT returns passed
// the leaf's b̃ ≥ θ in both. Which subtrees the search entered may differ —
// that is all a steering level decides.
func TestLeafAnswersUnmoved(t *testing.T) {
	spec := workload.OlympicRioSpec(3, 60_000)
	base, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 86_400
	for _, shape := range []struct {
		name string
		k    uint64
		opts []Option
	}{
		{"collision-free levels", 1024, []Option{WithPBE2(8)}},
		{"Count-Min levels below", 1 << 12, []Option{WithPBE2(4), WithSketchDims(3, 32)}},
	} {
		for _, origin := range []int64{0, 1_700_000_000} {
			prod, err := New(shape.k, shape.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(shape.k, shape.opts...)
			if err != nil {
				t.Fatal(err)
			}
			c := ref.cfg
			tree, err := dyadic.New(shape.k, dyadic.CMPBELevelsEvery(4, c.d, c.w, c.seed, c.gamma, c.gamma))
			if err != nil {
				t.Fatal(err)
			}
			ref.setTree(tree)
			for _, el := range base {
				prod.Append(el.Event, origin+el.Time)
				ref.Append(el.Event, origin+el.Time)
			}
			prod.Finish()
			ref.Finish()
			if prod.Bytes() >= ref.Bytes() {
				t.Fatalf("%s: fixture: the production index counts %d bytes, every level under γ %d", shape.name, prod.Bytes(), ref.Bytes())
			}
			var a, b binenc.Writer
			if err := prod.base.Encode(&a); err != nil {
				t.Fatal(err)
			}
			if err := ref.base.Encode(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("%s, origin %d: the leaf levels differ", shape.name, origin)
			}

			theta := float64(len(base)) / 2000
			frontier := prod.MaxTime()
			found := 0
			for i := int64(1); i <= 64; i++ {
				ts := origin + 2*tau + (frontier-origin-2*tau)*i/64
				e := uint64(i*37) % shape.k
				pb, _ := prod.Burstiness(e, ts, tau)
				rb, _ := ref.Burstiness(e, ts, tau)
				if pb != rb || prod.CumulativeFrequency(e, ts) != ref.CumulativeFrequency(e, ts) {
					t.Fatalf("%s: id %d at %d: b̃ %v vs %v, F̃ %v vs %v", shape.name, e, ts,
						pb, rb, prod.CumulativeFrequency(e, ts), ref.CumulativeFrequency(e, ts))
				}
				pt, _ := prod.BurstyTimes(e, theta, tau)
				rt, _ := ref.BurstyTimes(e, theta, tau)
				if !slices.Equal(pt, rt) {
					t.Fatalf("%s: id %d: BurstyTimes %v vs %v", shape.name, e, pt, rt)
				}
				for _, det := range []*Detector{prod, ref} {
					top, err := det.TopBursty(ts, 5, tau)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range top {
						if want, _ := ref.Burstiness(s.Event, ts, tau); s.Burstiness != want {
							t.Fatalf("%s: TopBursty at %d scores id %d %v, the leaf level says %v", shape.name, ts, s.Event, s.Burstiness, want)
						}
					}
					ids, err := det.BurstyEvents(ts, theta, tau)
					if err != nil {
						t.Fatal(err)
					}
					found += len(ids)
					for _, id := range ids {
						if got, _ := ref.Burstiness(id, ts, tau); got < theta {
							t.Fatalf("%s: BurstyEvents at %d returns id %d, whose leaf b̃ = %v is below θ = %v", shape.name, ts, id, got, theta)
						}
					}
				}
			}
			if found == 0 {
				t.Fatalf("%s: fixture: no query found a bursty event", shape.name)
			}
		}
	}
}
