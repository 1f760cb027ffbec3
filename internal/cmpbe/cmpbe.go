// Package cmpbe implements CM-PBE (paper Section IV): a Count-Min sketch
// whose cells hold persistent burstiness estimators instead of counters,
// enabling historical burstiness queries over a stream with a mixture of
// events in sublinear space.
//
// The sketch keeps d = O(log 1/δ) rows of w = O(1/ε) cells, each cell a PBE-2
// summary under one error cap γ, all d·w of them in one array. An incoming
// element (e, t) is hashed to one cell per row; the cell ignores the event id
// and treats everything mapped to it as a single event stream. A query for
// F_e(t) probes the d cells e maps to and returns the median of their
// estimates: collisions push a cell's estimate up while PBE-2's
// never-overestimate property pushes it down, and the median balances the
// two (Theorem 1: Pr[|F̃_e(t) − F_e(t)| ≤ εN + γ] ≥ 1 − δ).
//
// Every level of the dyadic event index is a *Sketch. A level whose aggregate
// ids fit its cells is the sketch's degenerate case (NewDirect): d = 1 and
// w = ids under the identity hash h(e) = e mod w, so each id has a cell to
// itself and none collide. It ingests, answers, merges and downsamples through
// the same code as a Count-Min level; CollisionFree tells the two apart where
// the kind matters — its stored record, its width under downsampling, and the
// shape checks of a decoded index. The paper's CM-PBE-1 baseline, whose PBE-1
// cells neither merge nor serialize, lives with the experiments that build it.
package cmpbe

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"histburst/internal/hash"
	"histburst/internal/pbe"
	"histburst/internal/pbe2"
	"histburst/internal/stream"
)

// maxStackD is the largest row count whose per-query scratch (the probed
// cells and the row sums of Rows) fits in fixed stack arrays. Point queries
// on sketches with d ≤ maxStackD perform zero heap allocations; wider
// sketches (δ < e^-8 ≈ 3e-4 rows — tighter than any practical setting) fall
// back to heap scratch and keep every row. Kept small because the arrays are
// zeroed on every query.
const maxStackD = 8

// Sketch is a CM-PBE.
type Sketch struct {
	d, w  int
	seed  int64
	cells []pbe2.Builder // the d·w cells contiguously, row-major: one indexed load per probe
	cols  []byte         // the array a finished level's cells lie end to end in (pbe2.Lay)
	hf    hash.Family
	n     int64 // total elements ingested
	maxT  int64

	// AppendBatch's counting-sort scratch, released by Finish: each cell's run
	// end within a row's batch, and the batch's cells and its timestamps
	// grouped by cell.
	batchEnd   []int32
	batchCell  []int32
	batchTimes []int64

	// bytesMemo caches Bytes()+1 (0 = invalid). Bytes walks all d·w cells,
	// which /v1/stats would otherwise pay per request; mutations invalidate.
	// Atomic because queries sharing a read lock may race to fill it.
	//
	//histburst:atomic
	bytesMemo atomic.Int64
}

// New creates a CM-PBE with explicit dimensions, deterministically seeded,
// whose cells are PBE-2 summaries under error cap gamma.
func New(d, w int, seed int64, gamma float64) (*Sketch, error) {
	if d <= 0 || w <= 0 {
		return nil, fmt.Errorf("cmpbe: dimensions must be positive, got d=%d w=%d", d, w)
	}
	hf, err := hash.NewFamily(d, w, seed)
	if err != nil {
		return nil, err
	}
	cells, err := pbe2.NewCells(d*w, gamma)
	if err != nil {
		return nil, err
	}
	return &Sketch{d: d, w: w, seed: seed, cells: cells, hf: hf}, nil
}

// NewDirect creates the collision-free level over the id space [0, ids): one
// row of ids cells under the identity hash, so id e has cell e mod ids to
// itself. Its cells are PBE-2 summaries under error cap gamma. The dyadic tree
// uses it for its top levels, where the number of aggregate ids is smaller
// than any useful Count-Min width — hashing two ids into two cells would
// collide with constant probability and destroy the additivity
// (F_parent = ΣF_child) that the pruning bound relies on.
func NewDirect(ids uint64, gamma float64) (*Sketch, error) {
	if ids == 0 {
		return nil, fmt.Errorf("cmpbe: direct id space must be non-empty")
	}
	cells, err := pbe2.NewCells(int(ids), gamma)
	if err != nil {
		return nil, err
	}
	return &Sketch{d: 1, w: int(ids), cells: cells, hf: hash.Identity(int(ids))}, nil
}

// NewDirectOf returns the collision-free level over one id holding a copy of
// sum, a finished summary of that id's arrivals: NewDirect(1, γ) once it has
// ingested them.
func NewDirectOf(sum *pbe2.Summary) (*Sketch, error) {
	s, err := NewDirect(1, sum.Gamma())
	if err == nil {
		err = pbe2.MergeFinishedInto(&s.cells[0], []*pbe2.Summary{sum})
	}
	if err != nil {
		return nil, err
	}
	s.n, s.maxT = sum.Count(), max(s.maxT, sum.Frontier())
	s.cols = pbe2.Lay(s.cells)
	return s, nil
}

// CollisionFree reports whether s is a level NewDirect builds: one row under
// the identity hash, a cell per id.
func (s *Sketch) CollisionFree() bool { return s.hf.Equal(hash.Identity(s.w)) }

// ErrorDims returns the Count-Min layout of the usual guarantees: d =
// ⌈ln(1/δ)⌉ rows and w = ⌈e/ε⌉ columns.
func ErrorDims(epsilon, delta float64) (d, w int, err error) {
	if !(epsilon > 0 && epsilon < 1) {
		return 0, 0, fmt.Errorf("cmpbe: epsilon must be in (0,1), got %v", epsilon)
	}
	if !(delta > 0 && delta < 1) {
		return 0, 0, fmt.Errorf("cmpbe: delta must be in (0,1), got %v", delta)
	}
	return int(math.Ceil(math.Log(1 / delta))), int(math.Ceil(math.E / epsilon)), nil
}

// Dims returns the sketch dimensions.
func (s *Sketch) Dims() (d, w int) { return s.d, s.w }

// Seed returns the seed the sketch's hash family was drawn from.
func (s *Sketch) Seed() int64 { return s.seed }

// cell returns event e's cell in row i.
func (s *Sketch) cell(i int, e uint64) *pbe2.Builder {
	return &s.cells[i*s.w+s.hf.Hash(i, e)]
}

// Append ingests one element (e, t). Elements must arrive in non-decreasing
// time order across the whole mixed stream.
func (s *Sketch) Append(e uint64, t int64) {
	for i := 0; i < s.d; i++ {
		s.cell(i, e).Append(t)
	}
	s.n++
	if t > s.maxT {
		s.maxT = t
	}
	// Invalidate the footprint memo; the load-first pattern keeps bulk
	// ingest (memo already invalid) to one uncontended read per element.
	if s.bytesMemo.Load() != 0 {
		s.bytesMemo.Store(0)
	}
}

// AppendBatch ingests elems in order, each under the id Event>>shift (the
// dyadic tree's level-ℓ aggregate id), one row at a time, with the counters
// moved once per batch. A batch that brings a row at least as many arrivals
// as it has cells is fed to it cell-major: a stable counting sort groups the
// batch's timestamps by cell, so each cell's state is loaded once per batch
// instead of once per arrival. A shorter batch is fed in arrival order, the
// row's w cells staying cached across it. Either way every cell receives
// exactly the Append(t) sequence that calling Append per element would hand
// it.
//
//histburst:fastpath Append
func (s *Sketch) AppendBatch(elems []stream.Element, shift uint) {
	hf := s.hf
	for i := 0; i < s.d; i++ {
		row := s.cells[i*s.w : (i+1)*s.w]
		if len(elems) < s.w {
			for _, el := range elems {
				row[hf.Hash(i, el.Event>>shift)].Append(el.Time)
			}
			continue
		}
		if s.batchEnd == nil {
			s.batchEnd = make([]int32, s.w)
		}
		end := s.batchEnd
		clear(end)
		cellOf := slices.Grow(s.batchCell[:0], len(elems))[:len(elems)]
		times := slices.Grow(s.batchTimes[:0], len(elems))[:len(elems)]
		s.batchCell, s.batchTimes = cellOf, times
		for k, el := range elems {
			c := int32(hf.Hash(i, el.Event>>shift))
			cellOf[k] = c
			end[c]++
		}
		sum := int32(0)
		for c, n := range end {
			end[c] = sum // where cell c's run starts; the scatter below advances it to the run's end
			sum += n
		}
		for k, c := range cellOf {
			times[end[c]] = elems[k].Time
			end[c]++
		}
		lo := int32(0)
		for c, hi := range end {
			for _, t := range times[lo:hi] {
				row[c].Append(t)
			}
			lo = hi
		}
	}
	s.n += int64(len(elems))
	s.maxT = batchMaxTime(elems, s.maxT)
	s.bytesMemo.Store(0)
}

// batchMaxTime returns the largest of cur and the batch's timestamps.
func batchMaxTime(elems []stream.Element, cur int64) int64 {
	for _, el := range elems {
		if el.Time > cur {
			cur = el.Time
		}
	}
	return cur
}

// Finish flushes every cell and lays the level's columns end to end in one
// array (pbe2.Lay). Idempotent: a finished sketch, whose cells lie in it
// still, is left unwritten, for readers may be running.
func (s *Sketch) Finish() {
	if s.Laid() {
		return
	}
	s.cols = pbe2.Lay(s.cells)
	s.batchEnd, s.batchCell, s.batchTimes = nil, nil, nil
	s.bytesMemo.Store(0) // flushing moves buffered points into summaries
}

// Laid reports whether the sketch's cells lie end to end in its one array,
// as Finish, a merge, a downsample and decoding leave them, and no append
// has moved one out since.
func (s *Sketch) Laid() bool { return pbe2.Laid(s.cells, s.cols) }

// N returns the total number of elements ingested.
func (s *Sketch) N() int64 { return s.n }

// MaxTime returns the largest timestamp seen.
func (s *Sketch) MaxTime() int64 { return s.maxT }

// EstimateF returns the median-of-rows estimate F̃_e(t): the one-part case
// of Rows. Zero heap allocations for d ≤ maxStackD.
//
//histburst:noalloc
func (s *Sketch) EstimateF(e uint64, t int64) float64 {
	var r Rows
	r.AddEstimate(s, e, t)
	return r.Median()
}

// Rows is CM-PBE's one combination rule (Section IV), over any number of
// time-disjoint parts: the cumulative frequencies of disjoint stream slices
// add (PBE-2's merge property, Section III), so each row is summed over the
// parts and the median is taken once, over the sums. A sketch is the
// one-part case; the segmented store adds one part per segment. Every part
// must have the same row count d; widths may differ (decay narrows them),
// since each part maps e through its own hash family. The zero value is
// empty, and holds its rows on the stack for d ≤ maxStackD.
type Rows struct {
	d     int
	stack [maxStackD]float64
	heap  []float64 // the rows when d > maxStackD
}

// open returns the d row sums the next part adds into, and whether it is the
// first part, whose terms are assigned rather than added: +0 + −0 is +0, and
// a one-part answer must keep the sign of its row's zero.
func (r *Rows) open(d int) (rows []float64, first bool) {
	if r.d == 0 {
		r.d, first = d, true
		if d > maxStackD {
			r.heap = make([]float64, d)
		}
	}
	return r.rows(), first
}

// rows returns the d row sums.
func (r *Rows) rows() []float64 {
	if r.d > maxStackD {
		return r.heap
	}
	return r.stack[:r.d]
}

// AddEstimate adds part s's row estimates F̃ᵣ(t) of event e.
//
//histburst:noalloc
func (r *Rows) AddEstimate(s *Sketch, e uint64, t int64) {
	rows, first := r.open(s.d)
	var buf [maxStackD]*pbe2.Builder
	for i, c := range s.probe(e, &buf) {
		if first {
			rows[i] = c.Estimate(t)
		} else {
			rows[i] += c.Estimate(t)
		}
	}
}

// AddBurstiness adds part s's row terms of equation (2) for event e at the
// instants t0 ≤ t1 ≤ t2, each row's three F̃ evaluations in one narrowed
// search.
//
//histburst:noalloc
func (r *Rows) AddBurstiness(s *Sketch, e uint64, t0, t1, t2 int64) {
	rows, first := r.open(s.d)
	var buf [maxStackD]*pbe2.Builder
	for i, c := range s.probe(e, &buf) {
		f0, f1, f2 := c.Estimate3(t0, t1, t2)
		if first {
			rows[i] = f2 - 2*f1 + f0
		} else {
			rows[i] += f2 - 2*f1 + f0
		}
	}
}

// Median returns the median of the summed rows, 0 when no part was added.
//
//histburst:noalloc
func (r *Rows) Median() float64 { return Median(r.rows()) }

// probe returns e's d cells, one per row, backed by buf when they fit. The
// cells are gathered before any is evaluated: the d loads hit unrelated cache
// lines, and a dedicated loop lets their misses overlap instead of
// serializing behind each row's evaluation. One row skips the hash family's
// batch evaluation.
func (s *Sketch) probe(e uint64, buf *[maxStackD]*pbe2.Builder) []*pbe2.Builder {
	if s.d == 1 {
		buf[0] = s.cell(0, e)
		return buf[:1]
	}
	var ibuf [maxStackD]int
	cs, idx := buf[:], ibuf[:]
	if s.d > maxStackD {
		cs, idx = make([]*pbe2.Builder, s.d), make([]int, s.d)
	}
	cs, idx = cs[:s.d], idx[:s.d]
	s.hf.Indexes(e, idx)
	for i := range cs {
		cs[i] = &s.cells[i*s.w+idx[i]]
	}
	return cs
}

// EventCells returns the d cells event e maps to, one per row. The cells are
// live references into the sketch; callers must treat them as read-only.
func (s *Sketch) EventCells(e uint64) []*pbe2.Builder {
	cells := make([]*pbe2.Builder, s.d)
	for i := range cells {
		cells[i] = s.cell(i, e)
	}
	return cells
}

// AppendBreakpoints appends the breakpoint lists of e's d cells to lists and
// returns it.
func (s *Sketch) AppendBreakpoints(lists [][]int64, e uint64) [][]int64 {
	for i := 0; i < s.d; i++ {
		lists = append(lists, s.cell(i, e).Breakpoints())
	}
	return lists
}

// EstimateFMin returns the min-of-rows estimate. Plain Count-Min uses the
// minimum because its per-cell error is one-sided; CM-PBE's is two-sided, so
// the median is the right estimator (Section IV). The minimum is exposed for
// the ablation benchmark that demonstrates exactly that.
func (s *Sketch) EstimateFMin(e uint64, t int64) float64 {
	min := math.Inf(1)
	for i := 0; i < s.d; i++ {
		if v := s.cell(i, e).Estimate(t); v < min {
			min = v
		}
	}
	return min
}

// Burstiness answers the POINT QUERY q(e, t, τ): the median over rows of the
// per-row burstiness estimate (each row evaluates equation (2) on its own
// coherent curve), the one-part case of Rows. Zero heap allocations for d ≤
// maxStackD. The median of one row is that row's estimate, which a one-row
// sketch returns without the rows' scratch.
//
//histburst:noalloc
//histburst:fastpath burstinessNaive
func (s *Sketch) Burstiness(e uint64, t int64, sp pbe.Span) float64 {
	t0, t1, t2 := sp.Instants(t)
	if s.d == 1 {
		f0, f1, f2 := s.cell(0, e).Estimate3(t0, t1, t2)
		return f2 - 2*f1 + f0
	}
	var r Rows
	r.AddBurstiness(s, e, t0, t1, t2)
	return r.Median()
}

// BurstyTimes answers the BURSTY TIME QUERY q(e, θ, τ) over the sketch: the
// point query swept over the union of the event's d cells' breakpoints
// shifted by {0, τ, 2τ}, so every candidate instant gets exactly the answer
// Burstiness gives there. Between candidate instants the median of the d
// per-row estimates may switch rows, so unlike the single-stream case the
// crossing refinement is heuristic there.
func (s *Sketch) BurstyTimes(e uint64, theta float64, sp pbe.Span) []pbe.TimeRange {
	burst := func(t int64) float64 { return s.Burstiness(e, t, sp) }
	return pbe.BurstyTimes(s.breakpoints(e), burst, theta, sp, s.maxT)
}

// breakpoints returns the sorted union of event e's d cells' breakpoints.
func (s *Sketch) breakpoints(e uint64) []int64 {
	var bufs [2][]int64
	return pbe.MergeSorted(s.AppendBreakpoints(make([][]int64, 0, s.d), e), &bufs)
}

// Bytes returns the total footprint of all cells, memoized until the next
// mutation (Append, AppendBatch, Finish): once laid, the array their
// columns lie in — their segments' fields, and past the last cell's rows the
// few bytes its loads read — and 16 bytes an escaped line; before, the sum
// of the cells' own pbe2.Summary.Bytes (pbe2.LevelSplit). Concurrent
// readers may race to fill the memo; they compute the same value, and the
// atomic keeps the race benign.
func (s *Sketch) Bytes() int {
	if v := s.bytesMemo.Load(); v > 0 {
		return int(v - 1)
	}
	total := s.Split().Total()
	s.bytesMemo.Store(int64(total) + 1)
	return total
}

// Split returns Bytes() split by field of the cells' segment columns.
func (s *Sketch) Split() pbe2.Split { return pbe2.LevelSplit(s.cells, s.cols) }

// Median returns the median of vals (average of the two middle values for
// even lengths, 0 for none), reordering vals, by insertion sort —
// allocation-free and faster than sort.Float64s at sketch row counts. The
// default row count d=5 takes a six-comparison selection network instead.
//
//histburst:noalloc
func Median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n == 5 {
		return median5(vals[0], vals[1], vals[2], vals[3], vals[4])
	}
	for i := 1; i < n; i++ {
		v := vals[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1] = vals[j]
			j--
		}
		vals[j+1] = v
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// median5 selects the median of five values in six comparisons. After
// sorting the pairs (a,b) and (c,d) and swapping the pairs so a ≤ c, a is no
// greater than b, c and d, so it cannot be the third smallest; the median is
// then the second smallest of the remaining four.
//
//histburst:noalloc
func median5(a, b, c, d, e float64) float64 {
	if a > b {
		a, b = b, a
	}
	if c > d {
		c, d = d, c
	}
	if a > c {
		c = a
		b, d = d, b
	}
	if b > e {
		b, e = e, b
	}
	// Second smallest of {b, c, d, e}, knowing b ≤ e and c ≤ d: drop the
	// smaller of b and c, then take the minimum of what can still be second.
	if b <= c {
		if c <= e {
			return c
		}
		return e
	}
	if b <= d {
		return b
	}
	return d
}
