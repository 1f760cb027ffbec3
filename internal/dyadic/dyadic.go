// Package dyadic implements the bursty event query structure of Section V:
// a dyadic decomposition over the event-id space with a CM-PBE per kept
// level and the pruned top-down search of Algorithm 3.
//
// Height 0 summarizes the original ids; height h summarizes aggregate ids
// e >> h (each covering a dyadic range of 2^h ids). Because cumulative
// frequencies are additive across siblings, burstiness is too:
// b_p = b_l + b_r, hence b_p² − 2·b_l·b_r = b_l² + b_r². If that quantity is
// below θ² neither child can reach |b| ≥ θ, so the subtree is pruned
// (equation 6). With few simultaneously bursty events the query touches
// O(log K) nodes instead of K.
//
// The tree keeps a summary only at the heights its LevelFactory returns one
// for. A collision-free parent is, by that same additivity, exactly the sum
// of its children — a shortcut, not information — so the index shape
// (LevelsEvery at IndexSpacing) keeps every fourth collision-free height and
// a node there has sixteen children, pruned by the additive form of the
// bound, Σ b_c² < θ². A factory that keeps every height gives Algorithm 3 as
// published. The production levels (CMPBELevels) are CM-PBE-2 sketches, one
// type at every height: a collision-free level is a *cmpbe.Sketch of one row
// over the identity hash, so merging and downsampling a level never ask its
// kind, and decoding asks it only to check the shape. The experiments fill the
// same shape with their CM-PBE-1 baseline.
//
// Only height 0 answers: every estimate a caller sees — a point query, the
// b̃ ≥ θ filter a reported id passed, a TopBursty score — is read from the
// leaf level. The heights above it steer: their estimates decide which
// subtrees the search descends into and are never returned. A steering cell
// that aggregates at least sixteen ids (height ≥ SteerHeight) is therefore
// built under SteerGammaFactor × γ, a fraction of the segments; the leaf
// level, and the few-id cells of heights 1–3 that a Count-Min index keeps
// just above it, under the detector's error cap γ.
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
// stream. *cmpbe.Sketch satisfies it; the experiments' CM-PBE-1 does too, and
// tests substitute exact stores to verify the pruning logic in isolation.
type Level interface {
	Scorer
	Append(e uint64, t int64)
	Finish()
	Bytes() int
}

// LevelFactory builds the summary for one height (0 = leaves); ids is the
// number of distinct aggregate ids there — widths can shrink as the id space
// halves. A nil Level with a nil error means the tree keeps no summary at
// that height; height 0 must be kept and a node may span at most
// IndexSpacing heights.
type LevelFactory func(level int, ids uint64) (Level, error)

// IndexSpacing is the distance between kept collision-free heights: a node
// there has 2^IndexSpacing children. Measured on olympicrio (the abl-fanout
// experiment), 4 beats 1, 2 and 3 on bytes, build time, recall and query
// time at K = 1024. At K ≥ 2¹⁴, where Count-Min levels sit below and every
// probe of a surviving node's sixteen children is a d-row sketch query, it
// buys recall 0.82 → 0.96 for 1.6–3.1× the BURSTY-EVENT time (spacing 2:
// +26–36 % time, recall 0.89–0.90) and, with the thinned levels under
// SteerGammaFactor × γ, under a tenth fewer bytes.
const IndexSpacing = 4

// SteerGammaFactor is how much looser than the leaf level's γ the PBE-2 error
// cap of a steering level at height ≥ SteerHeight is. Such a cell decides a
// prune, it never answers, and its error moves the bound Σ b_c² against θ² by
// O(γ·θ): an id whose burstiness clears θ by less than the steering cells'
// envelope 4·(SteerGammaFactor·γ) may be cut above the leaf that would have
// reported it. Measured (abl-level at scale 0.1: olympicrio over K = 2¹⁰ to
// 2¹⁶, uspolitics over narrow sketches), 4 is the last step at which
// BURSTY-EVENT recall holds on every row: within 0.007 of ×1 at prominent
// thresholds (3–20 % of the burstiness range) and within 0.016 at the lowest
// (1–5 %, where θ is inside that envelope), for −53 % bytes where every
// level is collision-free and −12…−27 % under Count-Min levels; ×8 gives up
// 0.04 at low thresholds at K = 2¹⁶, ×16 0.09 there and 0.06 at prominent ones
// on uspolitics. Precision is the leaf filter's and does not move. A
// constant, not an option: a saved index is only readable under the factor it
// was built with.
const SteerGammaFactor = 4

// SteerHeight is the lowest height built under the looser γ: the height of a
// sixteen-way node over collision-free leaves. Below it — heights 1 to 3,
// which exist only over Count-Min levels — a cell holds two to eight ids'
// arrivals, hardly more than a leaf's, and sits on a chain of two-way prune
// decisions. Loosening those as well would take the K ≥ 2¹⁴ indexes to a
// third of their bytes, and costs uspolitics 0.02 of recall at prominent
// thresholds and 0.05–0.06 at low ones (abl-level's "every height" rows), so
// they keep the leaf's γ.
const SteerHeight = IndexSpacing

// steered reports whether the level at height h is built under
// SteerGammaFactor × γ.
func steered(h int) bool { return h >= SteerHeight }

// SteerGamma is the PBE-2 error cap of the level at height h in an index
// whose leaves run under gamma: SteerGammaFactor × gamma from SteerHeight up,
// gamma below. The rule's one owner: the facade's build, DecodeTree,
// DownsampleTrees and the shape checks that hold a level to its γ all ask it.
func SteerGamma(h int, gamma float64) float64 {
	if steered(h) {
		return SteerGammaFactor * gamma
	}
	return gamma
}

// maxFanOut is the most children a node has — New holds every factory to
// it, so the search evaluates a node's children into a fixed buffer.
const maxFanOut = 1 << IndexSpacing

// levelSeedStride separates the hash seeds of the Count-Min levels.
const levelSeedStride = 7919

// CMPBELevels returns the production LevelFactory: the shape LevelsEvery
// keeps at IndexSpacing, of CM-PBE-2 sketches — Count-Min and collision-free
// (cmpbe.NewDirect) — whose cells are under the error cap leaf below
// SteerHeight and steer from there up — what SteerGamma gives for a leaf γ.
func CMPBELevels(d, w int, seed int64, leaf, steer float64) LevelFactory {
	return CMPBELevelsEvery(IndexSpacing, d, w, seed, leaf, steer)
}

// CMPBELevelsEvery is CMPBELevels with the spacing of the collision-free
// heights given; spacing 1 with steer = leaf keeps every height under one γ,
// which is §V as published. A kept level is the same bytes at any spacing.
// For the reproduction (fig12's published row, abl-fanout, abl-level) and
// tests; only the production spacing and factor are serializable.
func CMPBELevelsEvery(spacing, d, w int, seed int64, leaf, steer float64) LevelFactory {
	gamma := func(h int) float64 {
		if steered(h) {
			return steer
		}
		return leaf
	}
	return LevelsEvery(spacing, d, w, seed,
		func(h int, seed int64) (Level, error) { return cmpbe.New(d, w, seed, gamma(h)) },
		func(h int, ids uint64) (Level, error) { return cmpbe.NewDirect(ids, gamma(h)) })
}

// LevelsEvery returns the LevelFactory of the index shape: a Count-Min level
// of d rows and w columns, built by sketch under the seed given, at every
// height whose id count exceeds d·w, and a collision-free level over the
// height's ids, built by direct — no more cells than the sketch it replaces,
// and none of the collisions that break the additivity (F_parent = ΣF_child)
// the pruning bound relies on — at the lowest height that fits d·w cells and
// every spacing-th height above it. The Count-Min levels' seeds step by
// levelSeedStride from seed, one step a height.
//
// The two kinds thin differently. A collision-free parent repeats its
// children, so dropping it loses nothing; each Count-Min level hashes
// independently and is its own filter against the collisions of the one
// below, so all stay.
func LevelsEvery(spacing, d, w int, seed int64,
	sketch func(h int, seed int64) (Level, error),
	direct func(h int, ids uint64) (Level, error)) LevelFactory {
	return func(level int, ids uint64) (Level, error) {
		if spacing < 1 {
			return nil, fmt.Errorf("dyadic: level spacing must be positive, got %d", spacing)
		}
		h0 := directHeight(ids<<level, d, w)
		switch {
		case level < h0:
			return sketch(level, seed+int64(level)*levelSeedStride)
		case (level-h0)%spacing == 0:
			return direct(level, ids)
		}
		return nil, nil
	}
}

// directHeight returns the lowest height of a tree over k ids (a power of
// two) whose aggregate ids fit d·w collision-free cells.
func directHeight(k uint64, d, w int) int {
	h := 0
	for k>>h > uint64(d)*uint64(w) {
		h++
	}
	return h
}

// keptHeights lists the heights CMPBELevels keeps over 2^lgK ids when h0 is
// the lowest collision-free one: every height below it, then h0, h0+4, ….
func keptHeights(lgK, h0 int) []int {
	hs := make([]int, 0, h0+(lgK-h0)/IndexSpacing+1)
	for h := 0; h < h0; h++ {
		hs = append(hs, h)
	}
	for h := h0; h <= lgK; h += IndexSpacing {
		hs = append(hs, h)
	}
	return hs
}

// Tree is the dyadic bursty-event-query structure, searched as the Index of
// its own levels.
type Tree struct {
	Index
	levels []Level // levels[i] summarizes the aggregate ids e >> heights[i]; the Index scores through them
	k      uint64  // id-space size, a power of two
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
	sh := Shape{lgK: bits.TrailingZeros64(k)}
	var levels []Level
	for h := 0; h <= sh.lgK; h++ {
		l, err := f(h, k>>h)
		if err != nil {
			return nil, fmt.Errorf("dyadic: level %d: %w", h, err)
		}
		if l != nil {
			sh.heights = append(sh.heights, h)
			levels = append(levels, l)
		}
	}
	if err := checkHeights(sh.heights, sh.lgK); err != nil {
		return nil, err
	}
	return &Tree{Index: IndexOf(sh, levels), levels: levels, k: k}, nil
}

// checkHeights holds a height list to what the search indexes by: the leaves
// are kept, heights ascend, and neither a node nor the virtual root over the
// top kept level spans more than IndexSpacing heights.
func checkHeights(heights []int, lgK int) error {
	if len(heights) == 0 || heights[0] != 0 {
		return fmt.Errorf("dyadic: the leaf level (height 0) must be kept")
	}
	for i, h := range heights[1:] {
		if d := h - heights[i]; d < 1 || d > IndexSpacing {
			return fmt.Errorf("dyadic: level %d at height %d follows height %d; a node spans 1 to %d heights", i+1, h, heights[i], IndexSpacing)
		}
	}
	if top := heights[len(heights)-1]; top > lgK || lgK-top > IndexSpacing {
		return fmt.Errorf("dyadic: top level at height %d of %d leaves more than %d nodes without a parent", top, lgK, maxFanOut)
	}
	return nil
}

// K returns the (rounded) id-space size.
func (t *Tree) K() uint64 { return t.k }

// Levels returns the number of kept levels.
func (t *Tree) Levels() int { return len(t.levels) }

// Level returns the i-th kept level's summary (0 = leaves); Heights()[i] is
// its height. Callers that need richer queries than the Level interface
// offers (e.g. the facade's point queries against the leaf CM-PBE) may
// type-assert the result.
func (t *Tree) Level(i int) Level { return t.levels[i] }

// Append ingests one element into every level: the per-element protocol the
// paper's construction-cost figures time, and the reference AppendBatch is
// held byte-identical to.
func (t *Tree) Append(e uint64, ts int64) {
	if e >= t.k {
		e %= t.k // defensive: fold out-of-range ids into the space
	}
	for i, l := range t.levels {
		l.Append(e>>t.heights[i], ts)
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
// Event>>shift with its bookkeeping hoisted out of the element loop, as
// *cmpbe.Sketch does.
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
// those at the bottom of the tree. The fan-out is capped by the level count —
// three at K = 1024.
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
		for i := range t.levels {
			t.appendLevel(i, elems)
		}
		return
	}
	var next atomic.Int32
	feed := func() {
		for i := int(next.Add(1)) - 1; i < len(t.levels); i = int(next.Add(1)) - 1 {
			t.appendLevel(i, elems)
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

// appendLevel feeds the i-th kept level the batch under its aggregate ids.
func (t *Tree) appendLevel(i int, elems []stream.Element) {
	shift := uint(t.heights[i])
	if b, ok := t.levels[i].(batchLevel); ok {
		b.AppendBatch(elems, shift)
		return
	}
	for _, el := range elems {
		t.levels[i].Append(el.Event>>shift, el.Time)
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

// Scorer is how the searches read a kept level: the estimated burstiness of
// aggregate id agg at t over burst span tau.
type Scorer interface {
	Burstiness(agg uint64, t, tau int64) float64
}

// Shape is an index's id space, 2^lgK leaf ids, and its kept heights,
// ascending from 0; merging and downsampling keep it.
type Shape struct {
	lgK     int
	heights []int
}

// Heights returns the kept heights. The slice is the shape's own; callers
// must not modify it.
func (sh Shape) Heights() []int { return sh.heights }

// Index is what BurstyEvents and TopBursty walk: a shape and a Scorer at each
// kept height — a Tree's own levels, or a segment store's summed per query.
type Index struct {
	Shape
	scorers []Scorer // scorers[i] scores the aggregate ids e >> heights[i]
}

// IndexOf returns the index of shape sh over levels, one a kept height.
func IndexOf[S Scorer](sh Shape, levels []S) Index {
	scorers := make([]Scorer, len(levels))
	for i, l := range levels {
		scorers[i] = l
	}
	return Index{sh, scorers}
}

// BurstyEvents answers the BURSTY EVENT QUERY q(t, θ, τ): all event ids
// whose estimated burstiness at time ts is at least theta. theta must be
// positive (the pruning bound works on squares); NaN is refused too, since no
// bound compares below it and nothing would be pruned. The result is
// ascending.
//
// Stats, if non-nil, receives the number of point queries issued — the
// quantity Figure 12's discussion bounds by O(log K) in the typical case.
//
//histburst:fastpath burstyEventsBinary
func (x Index) BurstyEvents(ts int64, theta float64, tau int64, stats *QueryStats) ([]uint64, error) {
	if !(theta > 0) {
		return nil, fmt.Errorf("dyadic: theta must be positive, got %v", theta)
	}
	if stats == nil {
		stats = &QueryStats{}
	}
	var out []uint64
	s := search{x: x, ts: ts, theta: theta, tau: tau}
	s.visit(len(x.scorers), 0, 0, stats, &out)
	return out, nil
}

// QueryStats counts the work done by one BurstyEvents or TopBursty call.
type QueryStats struct {
	PointQueries int // burstiness estimates issued across all levels
	NodesVisited int // the virtual root included
	Pruned       int // subtrees cut by the equation-6 bound
}

// search holds the query-invariant state of one bursty-event search.
type search struct {
	x     Index
	ts    int64
	theta float64
	tau   int64
}

// fanShift returns how many heights node level i spans — it has 2^fanShift
// children at level i−1. Level len(scorers) is the virtual root: its
// children are the top kept level's nodes.
func (x Index) fanShift(i int) int {
	if i == len(x.scorers) {
		return x.lgK - x.heights[i-1]
	}
	return x.heights[i] - x.heights[i-1]
}

// visit implements Algorithm 3 over the kept levels. Node (i, agg) covers
// the leaf ids [agg<<heights[i], (agg+1)<<heights[i]) and b is its estimate,
// which its parent computed when it evaluated its children; the virtual root
// has none.
func (s *search) visit(i int, agg uint64, b float64, stats *QueryStats, out *[]uint64) {
	stats.NodesVisited++
	if i == 0 {
		if b >= s.theta {
			*out = append(*out, agg)
		}
		return
	}
	var cb [maxFanOut]float64
	first, n := s.expand(i, agg, b, &cb, stats)
	for j := 0; j < n; j++ {
		s.visit(i-1, first|uint64(j), cb[j], stats, out)
	}
}

// expand evaluates the children of node (i, agg) — ids first, first+1, … on
// level i−1 — into cb and returns how many to descend into: all of them, or
// none when the bound prunes the subtree. A
// two-child node applies equation 6 as published, b_p² − 2·b_l·b_r < θ²,
// with its own estimate b; a wider node, and the virtual root — which has no
// estimate — the additive form Σ b_c² < θ² the published one rewrites. Either
// way the subtree goes when no child reaches θ in aggregate. A virtual root
// over a single node has nothing to decide.
//
//histburst:noalloc
func (s *search) expand(i int, agg uint64, b float64, cb *[maxFanOut]float64, stats *QueryStats) (first uint64, n int) {
	shift := s.x.fanShift(i)
	n = 1 << shift
	first = agg << shift
	below := s.x.scorers[i-1]
	for j := 0; j < n; j++ {
		cb[j] = below.Burstiness(first|uint64(j), s.ts, s.tau)
	}
	stats.PointQueries += n
	var bound float64
	switch {
	case n == 1:
		return first, n
	case n == 2 && i < len(s.x.scorers):
		bound = b*b - 2*cb[0]*cb[1]
	default:
		for _, c := range cb[:n] {
			bound += c * c
		}
	}
	if bound < s.theta*s.theta {
		stats.Pruned++
		return first, 0
	}
	return first, n
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
