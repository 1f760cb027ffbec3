package segstore

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"histburst"
	"histburst/internal/cmpbe"
	"histburst/internal/pbe"
	"histburst/internal/pbe2"
)

// Query combination (the three instants of eq. (2), across segments):
// cumulative frequencies of time-disjoint stream slices add, so for every
// sketch row r the store's curve is the sum of the per-segment cell curves
// F̃ᵣ(t) = Σ_s F̃ᵣ,ₛ(t) — all segments share (d, w, seed), so row r maps
// event e to the same hash lane everywhere. The median is taken once, over
// the summed rows, and the head's exact counts are added after it (an exact
// term would only be distorted by passing through the median). For a
// single-segment store this collapses to exactly the monolithic detector's
// estimate; across segments it matches a MergeAppend-merged detector except
// inside inter-segment gaps, where each summand holds its own tail value
// instead of the merged segment's line — a difference bounded by the same γ
// guarantee (both readings are valid PBE-2 curves for the same staircase).

// Snapshot is one immutable generation of the store, answering every query
// type. All methods are safe for concurrent use; sealed segments are
// immutable, and the head (still live — a snapshot pins the composition,
// not the head's growth) synchronizes internally.
type Snapshot struct {
	v     *storeView
	kfold uint64
	gamma float64
	w     int
}

// Snapshot returns the current generation for querying. Queries on one
// snapshot never observe seals or compaction swaps that happen after it was
// taken.
func (s *Store) Snapshot() *Snapshot {
	return &Snapshot{v: s.view.Load(), kfold: s.kfold, gamma: s.params.Gamma, w: s.params.W}
}

// Generation returns the manifest generation this snapshot pins.
func (sn *Snapshot) Generation() uint64 { return sn.v.gen }

// heads returns the frozen heads plus the live head, oldest first.
func (sn *Snapshot) heads() []*memHead {
	out := make([]*memHead, 0, len(sn.v.frozen)+1)
	out = append(out, sn.v.frozen...)
	return append(out, sn.v.head)
}

// maxRows mirrors cmpbe's stack bound for the default sketch layouts.
const maxRows = 8

// queryScratch is the reusable state behind the zero-alloc point path and
// the breakpoint merge: the EventCells buffer every segment's cells append
// into, and the list and merge buffers of crossView.Breakpoints. A Snapshot
// is shared by concurrent readers (burstd's batch handler fans one snapshot
// across workers), so the scratch cannot hang off the snapshot itself — it
// is pooled and held for exactly one query.
type queryScratch struct {
	cells []*pbe2.Builder

	lists  [][]int64
	bounds []int64
	merge  [2][]int64
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// segsThrough returns the prefix of the snapshot's segments that can
// contribute at instant t: a segment whose MinT exceeds t holds no element
// at or before t, so every cell estimate — and therefore every burstiness
// term — is exactly zero there and the suffix can be skipped bit-identically.
func (sn *Snapshot) segsThrough(t int64) []*Segment {
	segs := sn.v.segs
	n := len(segs)
	if n == 0 || segs[n-1].meta.MinT <= t {
		return segs // the common case: t at or past the last boundary
	}
	return segs[:sort.Search(n, func(i int) bool { return segs[i].meta.MinT > t })]
}

// segsInWindow returns the segments that can contribute to b(t) with burst
// span tau — those overlapping (t−2τ, t]. segsThrough drops the suffix; the
// mirror image drops the prefix: a segment with MaxT ≤ t−2τ lies wholly at
// or before all three instants of equation (2), where each of its cells
// holds one value c (the line's value at the cell's last End, which is what
// Estimate returns from there on), so its term in every row is
// c − 2c + c = +0.0 exactly and the row sums are unchanged to the bit.
// MinT and MaxT both ascend along segs, so each end is one binary search.
func (sn *Snapshot) segsInWindow(t, tau int64) []*Segment {
	segs := sn.segsThrough(t)
	from := t - 2*tau
	if from >= t {
		return segs // 2τ overflowed: no instant is provably behind the window
	}
	return segs[sort.Search(len(segs), func(i int) bool { return segs[i].meta.MaxT > from }):]
}

// rowSums evaluates Σ_s F̃ᵣ,ₛ(t) for every row r into vals, returning the
// row count (0 when no sealed segment reaches back to t).
func (sn *Snapshot) rowSums(e uint64, t int64, vals *[maxRows]float64, scr *queryScratch) int {
	*vals = [maxRows]float64{}
	d := 0
	for _, g := range sn.segsThrough(t) {
		det := g.detector()
		if det == nil {
			continue // failed its first decode; quarantined, answered without
		}
		scr.cells = det.AppendEventCells(e, scr.cells[:0])
		d = min(len(scr.cells), maxRows)
		for i, c := range scr.cells[:d] {
			vals[i] += c.Estimate(t)
		}
	}
	scr.cells = scr.cells[:0]
	return d
}

// CumulativeFrequency returns the estimate F̃_e(t) over the whole history
// held by the snapshot.
func (sn *Snapshot) CumulativeFrequency(e uint64, t int64) float64 {
	e %= sn.kfold
	scr := queryScratchPool.Get().(*queryScratch)
	var buf [maxRows]float64
	est := 0.0
	if d := sn.rowSums(e, t, &buf, scr); d > 0 {
		est = cmpbe.Median(buf[:d])
	}
	queryScratchPool.Put(scr)
	for _, h := range sn.v.frozen {
		est += h.countAtOrBefore(e, t)
	}
	return est + sn.v.head.countAtOrBefore(e, t)
}

// Burstiness answers the POINT QUERY q(e, t, τ). Like the monolithic
// sketch, each row evaluates equation (2) on its own coherent (summed)
// curve and the median is taken over the per-row burstiness values; the
// head's exact burstiness is added after.
func (sn *Snapshot) Burstiness(e uint64, t, tau int64) (float64, error) {
	if tau <= 0 {
		return 0, fmt.Errorf("segstore: burst span must be positive, got %d", tau)
	}
	return sn.burstiness(e%sn.kfold, t, tau), nil
}

// burstiness is the fold-free core shared with the candidate rescoring
// paths (whose ids are already folded); tau is positive. Only the segments
// overlapping the query window are visited (segsInWindow) — which is also
// what keeps a lazily opened store lazy. Row scratch lives on the stack and
// cell scratch in a pooled buffer, so the cross-segment point query performs
// no per-query allocation.
//
//histburst:fastpath burstinessNaive
func (sn *Snapshot) burstiness(e uint64, t, tau int64) float64 {
	scr := queryScratchPool.Get().(*queryScratch)
	var rows [maxRows]float64
	d := 0
	t0, t1 := t-2*tau, t-tau
	for _, g := range sn.segsInWindow(t, tau) {
		det := g.detector()
		if det == nil {
			continue // failed its first decode; quarantined, answered without
		}
		scr.cells = det.AppendEventCells(e, scr.cells[:0])
		d = min(len(scr.cells), maxRows)
		for i, c := range scr.cells[:d] {
			f0, f1, f2 := c.Estimate3(t0, t1, t)
			rows[i] += f2 - 2*f1 + f0
		}
	}
	scr.cells = scr.cells[:0]
	queryScratchPool.Put(scr)
	b := cmpbe.Median(rows[:d])
	for _, h := range sn.v.frozen {
		b += h.burstiness(e, t, tau)
	}
	return b + sn.v.head.burstiness(e, t, tau)
}

// crossView is the per-event pbe.Estimator over the whole snapshot: the
// cross-segment cumulative estimate, plus breakpoints at every instant any
// component's curve changes shape. Feeding it to pbe.BurstyTimes answers
// the BURSTY TIME QUERY with the same contract as the monolithic sketch
// (candidate instants evaluated exactly; between breakpoints the median may
// switch rows, so crossing refinement is heuristic there).
type crossView struct {
	sn *Snapshot
	e  uint64
}

func (v *crossView) Estimate(t int64) float64 {
	return v.sn.CumulativeFrequency(v.e, t)
}

func (v *crossView) Breakpoints() []int64 {
	scr := queryScratchPool.Get().(*queryScratch)
	lists, bounds := scr.lists[:0], scr.bounds[:0]
	for _, g := range v.sn.v.segs {
		det := g.detector()
		if det == nil {
			continue
		}
		scr.cells = det.AppendEventCells(v.e, scr.cells[:0])
		for _, c := range scr.cells {
			lists = append(lists, c.Breakpoints())
		}
		// The segment boundary itself: past MaxT every cell's estimate
		// holds its exact count, a shape change the cells of *other*
		// segments do not know about. MaxT ascends along segs, so the
		// boundaries are one sorted list.
		bounds = append(bounds, g.meta.MaxT)
	}
	lists = append(lists, bounds)
	for _, h := range v.sn.heads() {
		if ts := h.arrivals(v.e); len(ts) > 0 {
			lists = append(lists, ts)
		}
	}
	out := mergeSorted(lists, &scr.merge)
	clear(lists) // the pool must not pin the cells' breakpoint lists
	scr.lists, scr.bounds, scr.cells = lists[:0], bounds[:0], scr.cells[:0]
	queryScratchPool.Put(scr)
	return out
}

// BurstyTimes answers the BURSTY TIME QUERY q(e, θ, τ): the maximal time
// ranges within [0, MaxTime] where the estimated burstiness reaches theta.
func (sn *Snapshot) BurstyTimes(e uint64, theta float64, tau int64) ([]histburst.TimeRange, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("segstore: burst span must be positive, got %d", tau)
	}
	v := &crossView{sn: sn, e: e % sn.kfold}
	internal := pbe.BurstyTimes(v, theta, tau, sn.MaxTime())
	out := make([]histburst.TimeRange, len(internal))
	for i, r := range internal {
		out[i] = histburst.TimeRange{Start: r.Start, End: r.End}
	}
	return out, nil
}

// BurstyEvents answers the BURSTY EVENT QUERY q(t, θ, τ) across segments.
// Candidate generation is per component: a burstiness of θ summed over m
// active components needs at least θ/m from one of them, so each active
// segment's dyadic index is searched at threshold θ/m and every head event
// with an arrival inside (t−2τ, t] is added (the head is exact, its
// threshold check happens at rescoring). Candidates are then rescored with
// the cross-segment point query and filtered at θ. Segments are searched in
// parallel — the per-segment searches are themselves the paper's pruned
// dyadic walks.
func (sn *Snapshot) BurstyEvents(t int64, theta float64, tau int64) ([]uint64, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("segstore: burst span must be positive, got %d", tau)
	}
	if theta <= 0 {
		return nil, fmt.Errorf("segstore: threshold must be positive, got %v", theta)
	}
	candidates, err := sn.burstyCandidates(t, theta, tau)
	if err != nil {
		return nil, err
	}
	out := candidates[:0]
	for _, e := range candidates {
		if sn.burstiness(e, t, tau) >= theta {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// burstyCandidates returns the deduplicated candidate ids for the bursty
// event search: per-active-segment dyadic searches at θ/m plus the heads'
// window events.
func (sn *Snapshot) burstyCandidates(t int64, theta float64, tau int64) ([]uint64, error) {
	lo, hi := t-2*tau+1, t
	active := sn.segsInWindow(t, tau)
	var activeHeads []*memHead
	for _, h := range sn.heads() {
		if h.activeIn(lo, hi) {
			activeHeads = append(activeHeads, h)
		}
	}
	m := len(active) + len(activeHeads)
	if m == 0 {
		return nil, nil
	}
	perComponent := theta / float64(m)

	ids := make([][]uint64, len(active))
	errs := make([]error, len(active))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	sem := make(chan struct{}, workers)
	for i, g := range active {
		wg.Add(1)
		go func(i int, g *Segment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if det := g.detector(); det != nil {
				ids[i], errs[i] = det.BurstyEvents(t, perComponent, tau)
			}
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	seen := make(map[uint64]struct{})
	var out []uint64
	add := func(e uint64) {
		if _, ok := seen[e]; !ok {
			seen[e] = struct{}{}
			out = append(out, e)
		}
	}
	for _, list := range ids {
		for _, e := range list {
			add(e)
		}
	}
	for _, h := range activeHeads {
		for _, e := range h.eventsInWindow(lo, hi) {
			add(e)
		}
	}
	return out, nil
}

// TopBursty returns up to k events with the largest cross-segment
// burstiness at time t, descending. Candidates are the union of each active
// segment's best-first top-k and the heads' window events, rescored with
// the cross-segment point query — per-segment ranks can disagree with the
// combined rank, so the widened candidate pool is re-ranked globally.
func (sn *Snapshot) TopBursty(t int64, k int, tau int64) ([]histburst.EventBurstiness, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("segstore: burst span must be positive, got %d", tau)
	}
	if k <= 0 {
		return nil, nil
	}
	lo, hi := t-2*tau+1, t
	seen := make(map[uint64]struct{})
	var candidates []uint64
	for _, g := range sn.segsInWindow(t, tau) {
		det := g.detector()
		if det == nil {
			continue
		}
		top, err := det.TopBursty(t, k, tau)
		if err != nil {
			return nil, err
		}
		for _, s := range top {
			if _, ok := seen[s.Event]; !ok {
				seen[s.Event] = struct{}{}
				candidates = append(candidates, s.Event)
			}
		}
	}
	for _, h := range sn.heads() {
		if !h.activeIn(lo, hi) {
			continue
		}
		for _, e := range h.eventsInWindow(lo, hi) {
			if _, ok := seen[e]; !ok {
				seen[e] = struct{}{}
				candidates = append(candidates, e)
			}
		}
	}
	scored := make([]histburst.EventBurstiness, 0, len(candidates))
	for _, e := range candidates {
		scored = append(scored, histburst.EventBurstiness{Event: e, Burstiness: sn.burstiness(e, t, tau)})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Burstiness != scored[j].Burstiness {
			return scored[i].Burstiness > scored[j].Burstiness
		}
		return scored[i].Event < scored[j].Event
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	return scored, nil
}

// N returns the number of elements held (sealed plus in-memory).
func (sn *Snapshot) N() int64 {
	n := int64(0)
	for _, g := range sn.v.segs {
		n += g.meta.Elements
	}
	for _, h := range sn.heads() {
		hn, _, _, _ := h.snapshot()
		n += hn
	}
	return n
}

// MaxTime returns the largest timestamp held (zero when empty).
func (sn *Snapshot) MaxTime() int64 {
	maxT := int64(0)
	if n := len(sn.v.segs); n > 0 {
		maxT = sn.v.segs[n-1].meta.MaxT
	}
	for _, h := range sn.heads() {
		if hn, _, hmax, _ := h.snapshot(); hn > 0 && hmax > maxT {
			maxT = hmax
		}
	}
	return maxT
}

// MinTime returns the smallest timestamp held (zero when empty).
func (sn *Snapshot) MinTime() int64 {
	if len(sn.v.segs) > 0 {
		return sn.v.segs[0].meta.MinT
	}
	for _, h := range sn.heads() {
		if hn, hmin, _, _ := h.snapshot(); hn > 0 {
			return hmin
		}
	}
	return 0
}

// Bytes returns the approximate footprint held in memory now: per sealed
// segment the decoded summary once something has touched it and the
// verified file bytes until then, plus what each head stores for its
// elements: 16 bytes and 31 fixed-width gaps per packed 32-timestamp chunk,
// 8 bytes per timestamp still in an open chunk (see memHead.bytes).
func (sn *Snapshot) Bytes() int {
	total := 0
	for _, g := range sn.v.segs {
		total += g.bytes()
	}
	for _, h := range sn.heads() {
		total += h.bytes()
	}
	return total
}

// Resident returns how many sealed segments are decoded in memory; the rest
// hold their verified file bytes until a query first touches them.
func (sn *Snapshot) Resident() int {
	n := 0
	for _, g := range sn.v.segs {
		if g.resident() {
			n++
		}
	}
	return n
}

// Segments returns the sealed segments' introspection records in time
// order.
func (sn *Snapshot) Segments() []SegmentInfo {
	out := make([]SegmentInfo, len(sn.v.segs))
	for i, g := range sn.v.segs {
		out[i] = SegmentInfo{
			ID: g.meta.ID, Start: g.meta.Start, End: g.meta.End,
			Elements: g.meta.Elements, Bytes: g.bytes(),
			File: g.meta.File, Compacted: g.meta.Compacted, Resident: g.resident(),
			Tier: g.meta.Tier, Gamma: g.meta.Gamma, W: g.meta.W, Res: g.meta.Res,
		}
	}
	return out
}

// TierStats aggregates the segments of one decay tier: how much history the
// tier holds, in how many bytes, at what fidelity. Tier 0 is full fidelity.
type TierStats struct {
	Tier     int     `json:"tier"`
	Segments int     `json:"segments"`
	Elements int64   `json:"elements"`
	Bytes    int     `json:"bytes"`
	Gamma    float64 `json:"gamma"`
	W        int     `json:"w"`
	Res      int64   `json:"res"`
	MinT     int64   `json:"minT"`
	MaxT     int64   `json:"maxT"`
}

// Tiers returns per-decay-tier footprint stats, ascending by tier. A store
// without decay reports a single tier-0 row (or none when empty). The tier
// table is the observable shape of the decay policy: retained bytes per
// tier stay roughly flat while the time span each tier covers doubles.
func (sn *Snapshot) Tiers() []TierStats {
	byTier := make(map[int]*TierStats)
	var order []int
	for _, g := range sn.v.segs {
		ts := byTier[g.meta.Tier]
		if ts == nil {
			ts = &TierStats{
				Tier:  g.meta.Tier,
				Gamma: g.meta.EffectiveGamma(sn.gamma),
				W:     g.meta.W,
				Res:   g.meta.EffectiveRes(),
				MinT:  g.meta.MinT,
				MaxT:  g.meta.MaxT,
			}
			if ts.W == 0 {
				ts.W = sn.w
			}
			byTier[g.meta.Tier] = ts
			order = append(order, g.meta.Tier)
		}
		ts.Segments++
		ts.Elements += g.meta.Elements
		ts.Bytes += g.bytes()
		if g.meta.MinT < ts.MinT {
			ts.MinT = g.meta.MinT
		}
		if g.meta.MaxT > ts.MaxT {
			ts.MaxT = g.meta.MaxT
		}
	}
	sort.Ints(order)
	out := make([]TierStats, len(order))
	for i, tier := range order {
		out[i] = *byTier[tier]
	}
	return out
}

// Quarantined returns the introspection records of segments removed from
// service for damage. Their sketches are gone; Bytes is zero and File names
// the evidence under quarantine/.
func (sn *Snapshot) Quarantined() []SegmentInfo {
	out := make([]SegmentInfo, len(sn.v.quarantined))
	for i, meta := range sn.v.quarantined {
		out[i] = SegmentInfo{
			ID: meta.ID, Start: meta.Start, End: meta.End,
			Elements: meta.Elements, File: meta.File, Compacted: meta.Compacted,
		}
	}
	return out
}

// MissingRanges returns the time spans covered only by quarantined
// segments — history the snapshot cannot see. Empty for a healthy store.
func (sn *Snapshot) MissingRanges() []histburst.TimeRange {
	out := make([]histburst.TimeRange, len(sn.v.quarantined))
	for i, meta := range sn.v.quarantined {
		out[i] = histburst.TimeRange{Start: meta.MinT, End: meta.MaxT}
	}
	return out
}

// ErrorEnvelope bounds the error of estimates at one instant. Bound is the
// additive PBE-2 guarantee summed over contributing sketch components: each
// sealed segment contributes its own (possibly decayed) γ, and only while
// the instant falls inside its span — a segment's cells report exact counts
// at and past its MaxT, so a segment entirely behind t adds zero error, and
// one entirely ahead contributes nothing at all. The head is exact. When
// segments are quarantined, their elements are absent from every estimate
// entirely — an unbounded-in-γ hole — so the envelope reports them
// separately instead of folding them into Bound, in the spirit of Hokusai's
// declining-fidelity reporting.
type ErrorEnvelope struct {
	// Gamma is the store's configured full-fidelity error cap.
	Gamma float64 `json:"gamma"`
	// Components is how many sealed sketch segments span the instant —
	// the segments whose γ caps actually bind at t.
	Components int `json:"components"`
	// Bound is the summed effective γ of the spanning segments: the
	// additive error cap on any cumulative frequency (and each burstiness
	// term) at res-aligned instants, over the data the store still holds.
	Bound float64 `json:"bound"`
	// Resolution is the coarsest time-resolution grid among the spanning
	// segments (1 = per-instant). Estimates between grid-aligned instants
	// may additionally lag by the true count change within the grid cell.
	Resolution int64 `json:"resolution,omitempty"`
	// MissingElements is how many elements quarantined segments held in
	// spans at or before t — history the estimates cannot include.
	MissingElements int64 `json:"missingElements,omitempty"`
	// Missing lists the quarantined spans overlapping [0, t].
	Missing []histburst.TimeRange `json:"missing,omitempty"`
	// Degraded is true when any history at or before t is missing.
	Degraded bool `json:"degraded"`
}

// Envelope reports the snapshot's error envelope for queries at instant t:
// the γ (and time resolution) actually in force there, not the store-wide
// worst case. Deep history decayed to coarser tiers widens the envelope
// only for instants inside those tiers' spans; recent instants keep the
// full-fidelity envelope however much history has decayed behind them.
func (sn *Snapshot) Envelope(t int64) ErrorEnvelope {
	env := ErrorEnvelope{Gamma: sn.gamma, Resolution: 1}
	for _, g := range sn.v.segs {
		if g.meta.MinT <= t && t <= g.meta.MaxT {
			env.Components++
			env.Bound += g.meta.EffectiveGamma(sn.gamma)
			if res := g.meta.EffectiveRes(); res > env.Resolution {
				env.Resolution = res
			}
		}
	}
	for _, meta := range sn.v.quarantined {
		if meta.MinT <= t {
			env.MissingElements += meta.Elements
			env.Missing = append(env.Missing, histburst.TimeRange{Start: meta.MinT, End: meta.MaxT})
		}
	}
	env.Degraded = env.MissingElements > 0 || len(env.Missing) > 0
	return env
}

// HeadStats describes the in-memory portion of a snapshot.
type HeadStats struct {
	Elements int64 `json:"elements"`
	MinT     int64 `json:"minT"`
	MaxT     int64 `json:"maxT"`
	Frozen   int   `json:"frozen"` // heads frozen but not yet sealed
}

// Head returns the snapshot's in-memory stats.
func (sn *Snapshot) Head() HeadStats {
	hs := HeadStats{Frozen: len(sn.v.frozen)}
	for _, h := range sn.heads() {
		n, minT, maxT, started := h.snapshot()
		if !started {
			continue
		}
		hs.Elements += n
		if hs.MinT == 0 || minT < hs.MinT {
			hs.MinT = minT
		}
		if maxT > hs.MaxT {
			hs.MaxT = maxT
		}
	}
	return hs
}

// Store-level conveniences: each takes a fresh snapshot.

// CumulativeFrequency returns F̃_e(t) over the current generation.
func (s *Store) CumulativeFrequency(e uint64, t int64) float64 {
	return s.Snapshot().CumulativeFrequency(e, t)
}

// Burstiness answers the POINT QUERY over the current generation.
func (s *Store) Burstiness(e uint64, t, tau int64) (float64, error) {
	return s.Snapshot().Burstiness(e, t, tau)
}

// BurstyTimes answers the BURSTY TIME QUERY over the current generation.
func (s *Store) BurstyTimes(e uint64, theta float64, tau int64) ([]histburst.TimeRange, error) {
	return s.Snapshot().BurstyTimes(e, theta, tau)
}

// BurstyEvents answers the BURSTY EVENT QUERY over the current generation.
func (s *Store) BurstyEvents(t int64, theta float64, tau int64) ([]uint64, error) {
	return s.Snapshot().BurstyEvents(t, theta, tau)
}

// TopBursty ranks the burstiest events over the current generation.
func (s *Store) TopBursty(t int64, k int, tau int64) ([]histburst.EventBurstiness, error) {
	return s.Snapshot().TopBursty(t, k, tau)
}

// N returns the number of elements held.
func (s *Store) N() int64 { return s.Snapshot().N() }

// MaxTime returns the largest timestamp held.
func (s *Store) MaxTime() int64 { return s.Snapshot().MaxTime() }

// Bytes returns the approximate summary footprint.
func (s *Store) Bytes() int { return s.Snapshot().Bytes() }

// Generation returns the current manifest generation.
func (s *Store) Generation() uint64 { return s.Snapshot().Generation() }

// Segments returns the current segment directory.
func (s *Store) Segments() []SegmentInfo { return s.Snapshot().Segments() }

// mergeSorted merges sorted int64 lists into one sorted deduplicated list by
// rounds of pairwise merges — O(total · log len(lists)) against the
// scan-every-list-per-output mergeSortedNaive it replaced. Each round reads
// the previous round's lists and writes the next into the other of the two
// scratch buffers; lists is reordered in place. The result is freshly
// allocated (callers keep it), the buffers are not.
//
//histburst:fastpath mergeSortedNaive
func mergeSorted(lists [][]int64, bufs *[2][]int64) []int64 {
	total, n := 0, 0
	for _, l := range lists {
		if len(l) > 0 {
			lists[n] = l
			n++
			total += len(l)
		}
	}
	if total == 0 {
		return nil
	}
	lists = lists[:n]
	for round := 0; len(lists) > 1; round++ {
		buf := bufs[round&1]
		if cap(buf) < total {
			buf = make([]int64, 0, total)
			bufs[round&1] = buf
		}
		buf = buf[:0]
		n = 0
		for i := 0; i < len(lists); i += 2 {
			var b []int64
			if i+1 < len(lists) {
				b = lists[i+1]
			}
			start := len(buf)
			buf = mergeTwo(buf, lists[i], b)
			lists[n] = buf[start:len(buf):len(buf)]
			n++
		}
		lists = lists[:n]
	}
	// The copy out of scratch is also the dedupe a lone list still owes.
	return mergeTwo(make([]int64, 0, len(lists[0])), lists[0], nil)
}

// mergeTwo appends the sorted deduplicated union of sorted a and b to dst.
func mergeTwo(dst, a, b []int64) []int64 {
	first := len(dst)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int64
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			v = a[i]
			i++
		} else {
			v = b[j]
			j++
		}
		if len(dst) == first || dst[len(dst)-1] != v {
			dst = append(dst, v)
		}
	}
	return dst
}
