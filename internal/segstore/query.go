package segstore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"histburst"
	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
	"histburst/internal/pbe"
)

// Query combination (the three instants of eq. (2), across segments):
// cumulative frequencies of time-disjoint stream slices add, so for every
// sketch row r the store's curve is the sum of the per-segment cell curves
// F̃ᵣ(t) = Σ_s F̃ᵣ,ₛ(t) — each segment maps e through its own level's hash
// family, and all share the row count d. cmpbe.Rows is that rule, the one a
// Detector answers by: one part per window segment, the median taken once,
// over the summed rows, and the head's exact counts added after it (an exact
// term would only be distorted by passing through the median). For a
// single-segment store this collapses to exactly the monolithic detector's
// estimate, for any d; across segments it matches the merged detector except
// inside inter-segment gaps, where each summand holds its own tail value
// instead of the merged segment's line — a difference bounded by the same γ
// guarantee (both readings are valid PBE-2 curves for the same staircase).
// BURSTY EVENT and TOP walk the event index summed the same way, level by
// level (summedLevels), so a burst that straddles a seal is scored whole.

// Snapshot is one immutable generation of the store, answering every query
// type. All methods are safe for concurrent use; sealed segments are
// immutable, and the head (still live — a snapshot pins the composition,
// not the head's growth) synchronizes internally.
type Snapshot struct {
	v     *storeView
	kfold uint64
	shape dyadic.Shape
	gamma float64
	w     int
}

// Snapshot returns the current generation for querying. Queries on one
// snapshot never observe seals or compaction swaps that happen after it was
// taken.
func (s *Store) Snapshot() *Snapshot {
	return &Snapshot{v: s.view.Load(), kfold: s.kfold, shape: s.shape, gamma: s.params.Gamma, w: s.params.W}
}

// Generation returns the manifest generation this snapshot pins.
func (sn *Snapshot) Generation() uint64 { return sn.v.gen }

// heads returns the frozen heads plus the live head, oldest first.
func (sn *Snapshot) heads() []*memHead {
	out := make([]*memHead, 0, len(sn.v.frozen)+1)
	out = append(out, sn.v.frozen...)
	return append(out, sn.v.head)
}

// queryScratch is the reusable state behind the breakpoint merge: the list
// and merge buffers of Snapshot.breakpoints. A Snapshot is shared by
// concurrent readers (burstd's batch handler fans one snapshot across
// workers), so the scratch cannot hang off the snapshot itself — it is
// pooled and held for exactly one query.
type queryScratch struct {
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

// segsInWindow returns the segments that can contribute to b(t) over span
// sp — those overlapping (t−2τ, t]. segsThrough drops the suffix; the
// mirror image drops the prefix: a segment with MaxT ≤ t−2τ lies wholly at
// or before all three instants of equation (2), where each of its cells
// holds one value c (the line's value at the cell's last End, which is what
// Estimate returns from there on), so its term in every row is
// c − 2c + c = +0.0 exactly and the row sums are unchanged to the bit.
// MinT and MaxT both ascend along segs, so each end is one binary search.
func (sn *Snapshot) segsInWindow(t int64, sp pbe.Span) []*Segment {
	segs := sn.segsThrough(t)
	from, _, _ := sp.Instants(t)
	return segs[sort.Search(len(segs), func(i int) bool { return segs[i].meta.MaxT > from }):]
}

// CumulativeFrequency returns the estimate F̃_e(t) over the whole history
// held by the snapshot: one Rows part per segment reaching back to t.
func (sn *Snapshot) CumulativeFrequency(e uint64, t int64) float64 {
	e %= sn.kfold
	var rows cmpbe.Rows
	for _, g := range sn.segsThrough(t) {
		if lv := g.sketch(0); lv != nil {
			rows.AddEstimate(lv, e, t)
		}
	}
	est := rows.Median()
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
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return 0, fmt.Errorf("segstore: %w", err)
	}
	return sn.BurstinessOver(e, t, sp), nil
}

// BurstinessOver is Burstiness over a span already built.
func (sn *Snapshot) BurstinessOver(e uint64, t int64, sp pbe.Span) float64 {
	return sn.burstiness(e%sn.kfold, t, sp)
}

// burstiness is the fold-free core, also the summed index's leaf level
// (whose ids are already folded): one Rows part per segment overlapping the
// query window (segsInWindow) — which is also what keeps a lazily opened
// store lazy. The rows live on the stack, so the cross-segment point query
// performs no per-query allocation.
//
//histburst:fastpath burstinessNaive
func (sn *Snapshot) burstiness(e uint64, t int64, sp pbe.Span) float64 {
	var rows cmpbe.Rows
	t0, t1, t2 := sp.Instants(t)
	for _, g := range sn.segsInWindow(t, sp) {
		if lv := g.sketch(0); lv != nil {
			rows.AddBurstiness(lv, e, t0, t1, t2)
		}
	}
	b := rows.Median()
	for _, h := range sn.v.frozen {
		b += h.burstiness(e, t, sp)
	}
	return b + sn.v.head.burstiness(e, t, sp)
}

// breakpoints returns the sorted instants at which e's cross-segment F̃
// changes shape: every sealed cell's breakpoints, each segment's MaxT and
// the heads' arrivals.
func (sn *Snapshot) breakpoints(e uint64) []int64 {
	scr := queryScratchPool.Get().(*queryScratch)
	lists, bounds := scr.lists[:0], scr.bounds[:0]
	for _, g := range sn.v.segs {
		lv := g.sketch(0)
		if lv == nil {
			continue
		}
		lists = lv.AppendBreakpoints(lists, e)
		// The segment boundary itself: past MaxT every cell's estimate
		// holds its exact count, a shape change the cells of *other*
		// segments do not know about. MaxT ascends along segs, so the
		// boundaries are one sorted list.
		bounds = append(bounds, g.meta.MaxT)
	}
	lists = append(lists, bounds)
	for _, h := range sn.heads() {
		if ts := h.arrivals(e); len(ts) > 0 {
			lists = append(lists, ts)
		}
	}
	out := pbe.MergeSorted(lists, &scr.merge)
	clear(lists) // the pool must not pin the cells' breakpoint lists
	scr.lists, scr.bounds = lists[:0], bounds[:0]
	queryScratchPool.Put(scr)
	return out
}

// BurstyTimes answers the BURSTY TIME QUERY q(e, θ, τ): the maximal time
// ranges within [0, MaxTime] where the estimated burstiness reaches theta.
// It is the point query swept over the shifted breakpoints, so each
// candidate instant visits only the segments overlapping its window, and
// every candidate gets exactly the answer Burstiness gives there.
func (sn *Snapshot) BurstyTimes(e uint64, theta float64, tau int64) ([]histburst.TimeRange, error) {
	sp, err := pbe.NewSpan(tau)
	th, terr := pbe.NewTimesTheta(theta)
	if err = cmp.Or(err, terr); err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	return sn.BurstyTimesOver(e, th, sp), nil
}

// BurstyTimesOver is BurstyTimes over a span and θ already built.
func (sn *Snapshot) BurstyTimesOver(e uint64, th pbe.TimesTheta, sp pbe.Span) []histburst.TimeRange {
	e %= sn.kfold
	burst := func(t int64) float64 { return sn.burstiness(e, t, sp) }
	return pbe.BurstyTimes(sn.breakpoints(e), burst, th.Float(), sp, sn.MaxTime())
}

// BurstyEvents answers the BURSTY EVENT QUERY q(t, θ, τ) across segments:
// Algorithm 3 over the summed index, ascending.
func (sn *Snapshot) BurstyEvents(t int64, theta float64, tau int64) ([]uint64, error) {
	sp, err := pbe.NewSpan(tau)
	th, terr := pbe.NewEventsTheta(theta)
	if err = cmp.Or(err, terr); err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	return dyadic.IndexOf(sn.shape, sn.summedLevels(t, sp)).BurstyEventIDs(t, th, sp, nil), nil
}

// BurstyEventsOver is BurstyEvents over a span and θ already built, each id
// with the burstiness the search found there: Burstiness's answer at (e, t, τ).
func (sn *Snapshot) BurstyEventsOver(t int64, th pbe.EventsTheta, sp pbe.Span) []histburst.EventBurstiness {
	return dyadic.IndexOf(sn.shape, sn.summedLevels(t, sp)).BurstyEvents(t, th, sp, nil)
}

// TopBursty returns up to k events with the largest cross-segment
// burstiness at time t: the best-first search over the summed index, ranked
// by descending burstiness and then ascending id.
func (sn *Snapshot) TopBursty(t int64, k int, tau int64) ([]histburst.EventBurstiness, error) {
	sp, err := pbe.NewSpan(tau)
	if err = cmp.Or(err, pbe.CheckTopK(int64(k))); err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	return sn.TopBurstyOver(t, k, sp), nil
}

// TopBurstyOver is TopBursty over a span already built, for a k > 0.
func (sn *Snapshot) TopBurstyOver(t int64, k int, sp pbe.Span) []histburst.EventBurstiness {
	return dyadic.IndexOf(sn.shape, sn.summedLevels(t, sp)).TopBursty(t, k, sp, nil)
}

// summedLevels returns the snapshot's event index levels at t over span sp,
// one a kept height, decoding only the segments overlapping (t−2τ, t]
// (segsInWindow).
func (sn *Snapshot) summedLevels(t int64, sp pbe.Span) []summedLevel {
	v := &summedView{sn: sn}
	v.t0, v.t1, _ = sp.Instants(t)
	levels := make([]summedLevel, len(sn.shape.Heights()))
	for i, h := range sn.shape.Heights() {
		levels[i] = summedLevel{v: v, h: h}
	}
	for _, g := range sn.segsInWindow(t, sp) {
		for i := 1; i < len(levels); i++ { // the leaves are the point query's
			if lv := g.sketch(i); lv != nil {
				levels[i].sks = append(levels[i].sks, lv)
			}
		}
	}
	var share []dyadic.EventScore
	for _, h := range sn.heads() {
		for _, e := range h.eventsInWindow(v.t0+1, t) {
			share = append(share, dyadic.EventScore{Event: e, Burstiness: h.burstiness(e, t, sp)})
		}
	}
	slices.SortFunc(share, func(a, b dyadic.EventScore) int { return cmp.Compare(a.Event, b.Event) })
	v.ids, v.cum = make([]uint64, len(share)), make([]float64, len(share)+1)
	for j, s := range share {
		v.ids[j], v.cum[j+1] = s.Event, v.cum[j]+s.Burstiness
	}
	return levels
}

// summedView is what one query's summed levels share: the instants of
// equation (2) and the heads' exact burstiness, prefix-summed by id.
type summedView struct {
	sn     *Snapshot
	t0, t1 int64
	ids    []uint64  // the heads' window events ascending, once per head holding one
	cum    []float64 // cum[j] is the heads' burstiness of ids[:j]
}

// summedLevel is the kept level at height h of the summed index.
type summedLevel struct {
	v   *summedView
	h   int
	sks []*cmpbe.Sketch // the window segments' levels at h; none at the leaves
}

// Burstiness scores aggregate id agg: at the leaves the point query, above
// them as a point query over the level's segments, one Rows part each, and
// the heads' exact share, one range of their prefix sums.
func (l summedLevel) Burstiness(agg uint64, t int64, sp pbe.Span) float64 {
	v := l.v
	if l.h == 0 {
		return v.sn.burstiness(agg, t, sp)
	}
	var rows cmpbe.Rows
	for _, lv := range l.sks {
		rows.AddBurstiness(lv, agg, v.t0, v.t1, t)
	}
	lo, _ := slices.BinarySearch(v.ids, agg<<l.h)
	hi, _ := slices.BinarySearch(v.ids, (agg+1)<<l.h)
	return rows.Median() + (v.cum[hi] - v.cum[lo])
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
// elements: per packed 64-timestamp chunk 16 bytes and its 63 gaps at the
// chunk's bit width, per open chunk 8 bytes and its gaps the same way, each
// chunk's gaps rounded up to whole bytes (see memHead.bytes).
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

// Envelope reports the snapshot's error envelope for queries at instant t:
// the γ (and time resolution) actually in force there, not the store-wide
// worst case. Deep history decayed to coarser tiers widens the envelope
// only for instants inside those tiers' spans; recent instants keep the
// full-fidelity envelope however much history has decayed behind them.
func (sn *Snapshot) Envelope(t int64) pbe.ErrorEnvelope {
	env := pbe.ErrorEnvelope{Gamma: sn.gamma, Resolution: 1}
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

// HeadStats describes the in-memory portion of a snapshot. Bytes is its
// share of Snapshot.Bytes: what the live head and the frozen ones store for
// their elements.
type HeadStats struct {
	Elements int64 `json:"elements"`
	MinT     int64 `json:"minT"`
	MaxT     int64 `json:"maxT"`
	Frozen   int   `json:"frozen"` // heads frozen but not yet sealed
	Bytes    int   `json:"bytes"`
}

// Head returns the snapshot's in-memory stats.
func (sn *Snapshot) Head() HeadStats {
	hs := HeadStats{Frozen: len(sn.v.frozen)}
	set := false // a head holding t = 0 sets MinT to 0, so a zero MinT cannot mean unset
	for _, h := range sn.heads() {
		hs.Bytes += h.bytes()
		n, minT, maxT, started := h.snapshot()
		if !started {
			continue
		}
		if !set {
			hs.MinT, hs.MaxT, set = minT, maxT, true
		}
		hs.Elements += n
		hs.MinT = min(hs.MinT, minT)
		hs.MaxT = max(hs.MaxT, maxT)
	}
	return hs
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
