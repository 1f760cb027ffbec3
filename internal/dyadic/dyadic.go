// Package dyadic implements the bursty event query structure of Section V:
// a dyadic decomposition over the event-id space with one CM-PBE per level
// and the pruned top-down search of Algorithm 3.
//
// Level 0 summarizes the original ids; level ℓ summarizes aggregate ids
// e >> ℓ (each covering a dyadic range of 2^ℓ ids); the top level holds a
// single aggregate for the whole space. Because cumulative frequencies are
// additive across siblings, burstiness is too: b_p = b_l + b_r, hence
// b_p² − 2·b_l·b_r = b_l² + b_r². If that quantity is below θ² neither child
// subtree can contain an event with |b| ≥ θ, so the subtree is pruned
// (equation 6). With few simultaneously bursty events the query touches
// O(log K) nodes instead of K.
package dyadic

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"histburst/internal/cmpbe"
	"histburst/internal/stream"
)

// Level is one level's summary: a sketch over that level's aggregate-id
// stream. *cmpbe.Sketch satisfies it; tests substitute exact stores to
// verify the pruning logic in isolation.
type Level interface {
	Append(e uint64, t int64)
	Finish()
	Burstiness(e uint64, t, tau int64) float64
	Bytes() int
}

// LevelFactory builds the summary for one level. level is the height
// (0 = leaves) and ids is the number of distinct aggregate ids at that
// level — widths can shrink as the id space halves.
type LevelFactory func(level int, ids uint64) (Level, error)

// CMPBELevels returns a LevelFactory producing CM-PBE sketches with d rows
// and w columns. Levels whose id count does not exceed d·w use a
// collision-free Direct summary instead: it needs no more PBE cells than
// the sketch it replaces while eliminating the collisions that would
// otherwise break the additivity (F_parent = ΣF_child) the pruning bound
// relies on — hashing a few hundred aggregate ids into a few hundred cells
// collides with constant probability.
func CMPBELevels(d, w int, seed int64, f cmpbe.Factory) LevelFactory {
	return func(level int, ids uint64) (Level, error) {
		if ids <= uint64(d)*uint64(w) {
			return cmpbe.NewDirect(ids, f)
		}
		return cmpbe.New(d, w, seed+int64(level)*7919, f)
	}
}

// Tree is the dyadic bursty-event-query structure.
type Tree struct {
	k      uint64 // id-space size, a power of two
	lgK    int
	levels []Level // levels[0] = leaves ... levels[lgK] = root
	maxT   int64
	n      int64
}

// New creates a tree over the id space [0, k). k is rounded up to a power
// of two.
func New(k uint64, f LevelFactory) (*Tree, error) {
	if k == 0 {
		return nil, fmt.Errorf("dyadic: id space must be non-empty")
	}
	if f == nil {
		return nil, fmt.Errorf("dyadic: level factory must not be nil")
	}
	k = roundPow2(k)
	lgK := bits.TrailingZeros64(k)
	levels := make([]Level, lgK+1)
	for lv := 0; lv <= lgK; lv++ {
		l, err := f(lv, k>>lv)
		if err != nil {
			return nil, fmt.Errorf("dyadic: level %d: %w", lv, err)
		}
		levels[lv] = l
	}
	return &Tree{k: k, lgK: lgK, levels: levels}, nil
}

// K returns the (rounded) id-space size.
func (t *Tree) K() uint64 { return t.k }

// Levels returns the number of levels (log2 K + 1).
func (t *Tree) Levels() int { return len(t.levels) }

// Level returns the summary at the given height (0 = leaves). Callers that
// need richer queries than the Level interface offers (e.g. the facade's
// point queries against the leaf CM-PBE) may type-assert the result.
func (t *Tree) Level(i int) Level { return t.levels[i] }

// Append ingests one element into every level: the per-element protocol the
// paper's construction-cost figures time, and the reference AppendBatch is
// held byte-identical to.
func (t *Tree) Append(e uint64, ts int64) {
	if e >= t.k {
		e %= t.k // defensive: fold out-of-range ids into the space
	}
	for lv := 0; lv <= t.lgK; lv++ {
		t.levels[lv].Append(e>>lv, ts)
	}
	t.n++
	if ts > t.maxT {
		t.maxT = ts
	}
}

// fanOutMin is the batch size below which AppendBatch stays on the calling
// goroutine: starting and joining a worker costs a few microseconds, about
// what one level spends on fifty arrivals. It matters to a caller that
// queries between appends, whose batches are one arrival long — fanned out,
// an append-then-query loop on a K = 1024 detector measured 3.5 µs against
// 1.7 µs inline.
const fanOutMin = 256

// batchLevel is a Level that takes a whole batch under the aggregate id
// Event>>shift with its bookkeeping hoisted out of the element loop; both
// cmpbe summaries do.
type batchLevel interface {
	AppendBatch(elems []stream.Element, shift uint)
}

// AppendBatch ingests elems — non-decreasing in time like Append's arrivals;
// ids at or above K are folded in place — level-major: each level takes the
// whole batch before the next one starts, so its cells stay cached for
// len(elems) appends instead of one, and since no two levels share state the
// levels are shared out over at most workers goroutines, all joined before
// it returns. Every cell of every level receives exactly the Append(t)
// sequence that calling Append per element would hand it, so the summary is
// byte-identical to Append's.
//
// Levels are claimed in ascending order, which is heaviest first: a
// Count-Min level costs d times a collision-free one, and CMPBELevels puts
// those at the bottom of the tree.
//
//histburst:fastpath Append
func (t *Tree) AppendBatch(elems []stream.Element, workers int) {
	if len(elems) == 0 {
		return
	}
	for i := range elems {
		if elems[i].Event >= t.k {
			elems[i].Event %= t.k
		}
		if elems[i].Time > t.maxT {
			t.maxT = elems[i].Time
		}
	}
	t.n += int64(len(elems))

	workers = min(workers, len(t.levels))
	if workers <= 1 || len(elems) < fanOutMin {
		for lv := range t.levels {
			t.appendLevel(lv, elems)
		}
		return
	}
	var next atomic.Int32
	feed := func() {
		for lv := int(next.Add(1)) - 1; lv < len(t.levels); lv = int(next.Add(1)) - 1 {
			t.appendLevel(lv, elems)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed()
		}()
	}
	feed() // the caller is a worker too
	wg.Wait()
}

// appendLevel feeds one level the batch under that level's aggregate ids.
func (t *Tree) appendLevel(lv int, elems []stream.Element) {
	if b, ok := t.levels[lv].(batchLevel); ok {
		b.AppendBatch(elems, uint(lv))
		return
	}
	for _, el := range elems {
		t.levels[lv].Append(el.Event>>lv, el.Time)
	}
}

// Finish flushes every level. Idempotent.
func (t *Tree) Finish() {
	for _, l := range t.levels {
		l.Finish()
	}
}

// N returns the number of ingested elements.
func (t *Tree) N() int64 { return t.n }

// MaxTime returns the largest timestamp seen.
func (t *Tree) MaxTime() int64 { return t.maxT }

// Burstiness answers a point query for a leaf event from level 0.
func (t *Tree) Burstiness(e uint64, ts, tau int64) float64 {
	return t.levels[0].Burstiness(e, ts, tau)
}

// BurstyEvents answers the BURSTY EVENT QUERY q(t, θ, τ): all event ids
// whose estimated burstiness at time ts is at least theta. theta must be
// positive (the pruning bound works on squares). The result is ascending.
//
// Stats, if non-nil, receives the number of point queries issued — the
// quantity Figure 12's discussion bounds by O(log K) in the typical case.
func (t *Tree) BurstyEvents(ts int64, theta float64, tau int64, stats *QueryStats) ([]uint64, error) {
	if theta <= 0 {
		return nil, fmt.Errorf("dyadic: theta must be positive, got %v", theta)
	}
	if stats == nil {
		stats = &QueryStats{}
	}
	var out []uint64
	t.recurse(t.lgK, 0, ts, theta, tau, stats, &out)
	return out, nil
}

// QueryStats counts the work done by one BurstyEvents call.
type QueryStats struct {
	PointQueries int // burstiness estimates issued across all levels
	NodesVisited int
	Pruned       int // subtrees cut by the equation-6 bound
}

// recurse implements Algorithm 3. Node (lv, agg) covers leaf ids
// [agg<<lv, (agg+1)<<lv).
func (t *Tree) recurse(lv int, agg uint64, ts int64, theta float64, tau int64, stats *QueryStats, out *[]uint64) {
	stats.NodesVisited++
	if lv == 0 {
		stats.PointQueries++
		if t.levels[0].Burstiness(agg, ts, tau) >= theta {
			*out = append(*out, agg)
		}
		return
	}
	bp := t.levels[lv].Burstiness(agg, ts, tau)
	bl := t.levels[lv-1].Burstiness(agg<<1, ts, tau)
	br := t.levels[lv-1].Burstiness(agg<<1|1, ts, tau)
	stats.PointQueries += 3
	if bp*bp-2*bl*br < theta*theta {
		stats.Pruned++
		return
	}
	t.recurse(lv-1, agg<<1, ts, theta, tau, stats, out)
	t.recurse(lv-1, agg<<1|1, ts, theta, tau, stats, out)
}

// Bytes returns the total footprint across levels.
func (t *Tree) Bytes() int {
	total := 0
	for _, l := range t.levels {
		total += l.Bytes()
	}
	return total
}

func roundPow2(k uint64) uint64 {
	if k&(k-1) == 0 {
		return k
	}
	return 1 << (64 - bits.LeadingZeros64(k))
}
