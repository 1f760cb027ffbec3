package dyadic

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"histburst/internal/cmpbe"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// burstyEventsBinary is Algorithm 3 as this package ran it while the tree
// kept every height — every node re-estimated as the next call's parent, two
// children, equation 6 — frozen here as the reference the walk over kept
// levels is held to. It needs a summary at every height.
func (t *Tree) burstyEventsBinary(ts int64, theta float64, tau int64) []uint64 {
	var out []uint64
	var recurse func(lv int, agg uint64)
	recurse = func(lv int, agg uint64) {
		if lv == 0 {
			if t.levels[0].Burstiness(agg, ts, pbe.MustSpan(tau)) >= theta {
				out = append(out, agg)
			}
			return
		}
		bp := t.levels[lv].Burstiness(agg, ts, pbe.MustSpan(tau))
		bl := t.levels[lv-1].Burstiness(agg<<1, ts, pbe.MustSpan(tau))
		br := t.levels[lv-1].Burstiness(agg<<1|1, ts, pbe.MustSpan(tau))
		if bp*bp-2*bl*br < theta*theta {
			return
		}
		recurse(lv-1, agg<<1)
		recurse(lv-1, agg<<1|1)
	}
	recurse(t.lgK, 0)
	return out
}

// topBurstyBinary is the best-first search of the same vintage, on
// container/heap, held to the ranking contract: descending score, ties by
// ascending id, a node read as its score at its lowest leaf id.
func (t *Tree) topBurstyBinary(ts int64, k int, tau int64) []EventScore {
	pq := &binaryHeap{}
	heap.Push(pq, binaryNode{lv: t.lgK, bound: math.Abs(t.levels[t.lgK].Burstiness(0, ts, pbe.MustSpan(tau)))})
	var results []EventScore
	for pq.Len() > 0 {
		n := heap.Pop(pq).(binaryNode)
		if len(results) >= k && ranksBefore(results[k-1], n.score()) {
			break
		}
		if n.lv == 0 {
			results = insertScore(results, EventScore{Event: n.agg, Burstiness: n.exact}, k)
			continue
		}
		for j := uint64(0); j < 2; j++ {
			bc := t.levels[n.lv-1].Burstiness(n.agg<<1|j, ts, pbe.MustSpan(tau))
			child := binaryNode{lv: n.lv - 1, agg: n.agg<<1 | j, bound: math.Abs(bc)}
			if child.lv == 0 {
				child.bound, child.exact = bc, bc
			}
			heap.Push(pq, child)
		}
	}
	return results
}

type binaryNode struct {
	lv    int
	agg   uint64
	bound float64
	exact float64
}

func (n binaryNode) score() EventScore {
	return EventScore{Event: n.agg << n.lv, Burstiness: n.bound}
}

type binaryHeap []binaryNode

func (h binaryHeap) Len() int           { return len(h) }
func (h binaryHeap) Less(i, j int) bool { return ranksBefore(h[i].score(), h[j].score()) }
func (h binaryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *binaryHeap) Push(x any)        { *h = append(*h, x.(binaryNode)) }
func (h *binaryHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// cancellationStream is TestPruningCancellationMiss's fixture: event 1 runs
// at a steady rate and stops at t = 200, where event 0 starts at the same
// rate, so their parent's burstiness cancels.
func cancellationStream() stream.Stream {
	var data stream.Stream
	for tm := int64(0); tm < 300; tm++ {
		e := uint64(1)
		if tm >= 200 {
			e = 0
		}
		for j := 0; j < 5; j++ {
			data = append(data, stream.Element{Event: e, Time: tm})
		}
	}
	return data
}

// TestEveryLevelIsAlgorithm3: a tree whose factory keeps every height is the
// published algorithm answer for answer — the kept-levels walk hands a node
// the estimate its parent computed instead of computing it again, and a
// two-child node decides by equation 6 exactly as before.
func TestEveryLevelIsAlgorithm3(t *testing.T) {
	f, steer := indexGammas(2)
	for _, c := range []struct {
		name    string
		k       uint64
		levels  LevelFactory
		data    stream.Stream
		horizon int64
	}{
		{"exact levels", 256, exactFactory, burstyStream(11, 256, 3000), 3000},
		{"exact levels, K=1", 1, exactFactory, burstyStream(5, 1, 400), 400},
		{"cancellation fixture", 4, exactFactory, cancellationStream(), 300},
		{"collision-free PBE-2 levels", 64, CMPBELevelsEvery(1, 4, 64, 11, f, steer), burstyStream(7, 64, 3000), 3000},
		{"Count-Min levels below", 256, CMPBELevelsEvery(1, 3, 16, 5, f, steer), burstyStream(23, 256, 3000), 3000},
	} {
		tr, err := New(c.k, c.levels)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Levels() != tr.lgK+1 {
			t.Fatalf("%s: %d levels over 2^%d ids; the reference needs every height", c.name, tr.Levels(), tr.lgK)
		}
		for _, el := range c.data {
			tr.Append(el.Event, el.Time)
		}
		tr.Finish()
		r := rand.New(rand.NewSource(29))
		found := 0
		for trial := 0; trial < 300; trial++ {
			ts := r.Int63n(c.horizon)
			tau := 1 + r.Int63n(120)
			theta := float64(1 + r.Intn(40))
			want := tr.burstyEventsBinary(ts, theta, tau)
			found += len(want)
			hits, err := tr.BurstyEvents(ts, theta, pbe.MustSpan(tau), nil)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]uint64, len(hits))
			for i, h := range hits {
				got[i] = h.Event
				if b := tr.levels[0].Burstiness(h.Event, ts, pbe.MustSpan(tau)); math.Float64bits(h.Burstiness) != math.Float64bits(b) {
					t.Fatalf("%s: ts=%d τ=%d: BurstyEvents scored %d at %v, its leaf %v", c.name, ts, tau, h.Event, h.Burstiness, b)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: ts=%d τ=%d θ=%v: BurstyEvents %v, Algorithm 3 %v", c.name, ts, tau, theta, got, want)
			}
			if ids, err := tr.BurstyEventIDs(ts, theta, pbe.MustSpan(tau), nil); err != nil || !slices.Equal(ids, got) {
				t.Fatalf("%s: ts=%d τ=%d θ=%v: BurstyEventIDs %v (%v), BurstyEvents %v", c.name, ts, tau, theta, ids, err, got)
			}
			if c.k == 1 {
				continue // the binary search scored a root that is also a leaf as 0
			}
			k := 1 + r.Intn(5)
			top, err := tr.TopBursty(ts, k, pbe.MustSpan(tau), nil)
			if err != nil {
				t.Fatal(err)
			}
			if wantTop := tr.topBurstyBinary(ts, k, tau); !slices.Equal(top, wantTop) {
				t.Fatalf("%s: ts=%d τ=%d k=%d: TopBursty %v, binary best-first %v", c.name, ts, tau, k, top, wantTop)
			}
		}
		if found == 0 {
			t.Fatalf("%s: no trial found a bursty event; the comparison is vacuous", c.name)
		}
	}
}

// TestKeptHeights pins the shape rule over id spaces and sketch dimensions:
// the leaves are always kept, heights ascend to at most lg K, every Count-Min
// height is present and below every collision-free one, the collision-free
// ones start at the lowest that fits and are IndexSpacing apart, and neither
// a node nor the virtual root has more than maxFanOut children.
func TestKeptHeights(t *testing.T) {
	f, steer := indexGammas(2)
	for _, dims := range [][2]int{{5, 272}, {3, 16}, {64, 4096}} {
		d, w := dims[0], dims[1]
		for _, k := range []uint64{1, 2, 16, 32, 1024, 1 << 11, 1 << 14, 1 << 16} {
			tr, err := New(k, CMPBELevels(d, w, 1, f, steer))
			if err != nil {
				t.Fatalf("K=%d %d×%d: %v", k, d, w, err)
			}
			heights := tr.Heights()
			h0 := directHeight(k, d, w)
			if !slices.Equal(heights, keptHeights(tr.lgK, h0)) {
				t.Fatalf("K=%d %d×%d: New kept %v, keptHeights says %v", k, d, w, heights, keptHeights(tr.lgK, h0))
			}
			if err := checkHeights(heights, tr.lgK); err != nil {
				t.Fatalf("K=%d %d×%d: %v", k, d, w, err)
			}
			if heights[0] != 0 {
				t.Fatalf("K=%d %d×%d: leaves not kept: %v", k, d, w, heights)
			}
			for i, h := range heights {
				sketch := !tr.Level(i).(*cmpbe.Sketch).CollisionFree()
				switch {
				case sketch != (k>>h > uint64(d*w)):
					t.Fatalf("K=%d %d×%d: height %d holds a %T over %d ids", k, d, w, h, tr.Level(i), k>>h)
				case sketch && h != i:
					t.Fatalf("K=%d %d×%d: Count-Min height %d missing below %v", k, d, w, i, heights)
				case !sketch && (h-h0)%IndexSpacing != 0:
					t.Fatalf("K=%d %d×%d: collision-free height %d is not %d + a multiple of %d", k, d, w, h, h0, IndexSpacing)
				}
				if i > 0 && (h <= heights[i-1] || 1<<(h-heights[i-1]) > maxFanOut) {
					t.Fatalf("K=%d %d×%d: heights %v: node at %d has more than %d children or none", k, d, w, heights, h, maxFanOut)
				}
			}
			if top := heights[len(heights)-1]; top > tr.lgK || k>>top > maxFanOut {
				t.Fatalf("K=%d %d×%d: top height %d leaves %d nodes under the virtual root", k, d, w, top, k>>top)
			}
		}
	}
	for _, c := range []struct {
		k    uint64
		want []int
	}{
		{1024, []int{0, 4, 8}},
		{1 << 16, []int{0, 1, 2, 3, 4, 5, 6, 10, 14}},
	} {
		tr, _ := New(c.k, CMPBELevels(5, 272, 1, f, steer))
		if !slices.Equal(tr.Heights(), c.want) {
			t.Fatalf("K=%d at 5×272 keeps %v, want %v", c.k, tr.Heights(), c.want)
		}
	}
}

// TestNewRejectsUnwalkableShapes: the search indexes a node's children into
// a fixed buffer, so New refuses a factory that drops the leaves or leaves a
// node more than maxFanOut children.
func TestNewRejectsUnwalkableShapes(t *testing.T) {
	only := func(keep ...int) LevelFactory {
		return func(level int, ids uint64) (Level, error) {
			if slices.Contains(keep, level) {
				return newExactLevel(), nil
			}
			return nil, nil
		}
	}
	for _, c := range []struct {
		name string
		k    uint64
		f    LevelFactory
		ok   bool
	}{
		{"leaves only, sixteen of them", 16, only(0), true},
		{"leaves only, thirty-two", 32, only(0), false},
		{"no leaves", 16, only(4), false},
		{"a five-height node", 1024, only(0, 5, 9), false},
		{"uneven but walkable", 1024, only(0, 1, 5, 6, 10), true},
	} {
		if _, err := New(c.k, c.f); (err == nil) != c.ok {
			t.Errorf("%s: New error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
