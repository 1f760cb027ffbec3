package pbe2

import "histburst/internal/pbe"

// Fast-path query support. Estimate has two regimes: a "live head" (the
// exact count at/past the frontier and, on a Builder, the open feasible
// region's centroid line or a single uncommitted constraint) and the
// closed-segment list. The head checks are O(1) already; the wins here are
// narrowing the three point-query searches against each other (Estimate3)
// and computing the open polygon's centroid at most once per query instead
// of once per evaluation. A Summary and a Builder share every kernel: the
// Summary's queries pass no window, the Builder's its own.

var (
	_ pbe.Estimator3 = (*Summary)(nil)
	_ pbe.Estimator3 = (*Builder)(nil)
)

// centroidCache lazily computes the open region's centroid line once.
// Queries must not mutate the Builder (they run concurrently under read
// locks), so the cache lives in the caller's frame instead.
type centroidCache struct {
	a, y float64 // region.line()
	have bool
}

// liveHead answers t from the state the closed segments do not hold, if it
// applies: the exact count at and past the frontier, or, in the open window
// w (nil on a sealed summary), the region's line (any of its lines satisfies
// every constraint of the window) or a single uncommitted constraint — the
// staircase is flat at its frequency from that instant to the open corner.
func (s *Summary) liveHead(w *region, t int64, cc *centroidCache) (float64, bool) {
	if s.count == 0 {
		return 0, false
	}
	if t >= s.lastT {
		return float64(s.count), true
	}
	if w == nil || t < w.winStart {
		return 0, false
	}
	if w.open {
		if !cc.have {
			cc.a, cc.y = w.line()
			cc.have = true
		}
		return segVal(Segment{A: cc.a, Y: cc.y, Start: w.winStart, End: t}, t), true
	}
	if w.pending {
		return w.v0, true
	}
	return 0, false
}

// segValue maps a segment index found for t (-1 = before the first segment)
// to the estimate: the segment's line inside its span, the held final value
// in the flat gap after it: seg spelled out, so that segAt, which fits the
// inlining budget where seg does not, inlines into it. Estimate and the
// downsampling cursor spell it out the same way.
//
//histburst:noalloc
func (s *Summary) segValue(i int, t int64) float64 {
	switch {
	case i < 0:
		return 0
	case s.floatValues():
		return segVal(s.segFloat(i), t)
	}
	return segVal(s.segAt(i, s.start(i)), t)
}

// Estimate3 evaluates F̃ at three ascending instants t0 ≤ t1 ≤ t2 in one
// pass, narrowing each segment search by the previous (later-time) result.
// Results are identical to three Estimate calls.
//
//histburst:noalloc
//histburst:fastpath Estimate
func (s *Summary) Estimate3(t0, t1, t2 int64) (f0, f1, f2 float64) {
	return s.estimate3(nil, t0, t1, t2)
}

// Estimate3 is Summary.Estimate3 with the open tail answered as Estimate
// answers it.
//
//histburst:noalloc
//histburst:fastpath Estimate
func (b *Builder) Estimate3(t0, t1, t2 int64) (f0, f1, f2 float64) {
	return b.estimate3(b.win, t0, t1, t2)
}

// estimate3 is Estimate3 beside the open window w, if any.
//
// Two observations cut most of the work. First, every live-head condition
// is monotone in t, so when the latest instant falls through to the segment
// list the earlier instants cannot hit the head and skip those checks
// entirely — that common case runs as one straight-line function. Second,
// the instants are τ apart while segments typically span much more, so the
// earlier answers are usually in the same or the adjacent segment as the
// previous one — probe there before binary-searching the narrowed range. The
// searches compare each instant's offset from the first start against the
// narrow starts, and read each segment with segAt, its value at Start then
// replaced in a cell of float64 values; a wide cell takes the three
// independent searches of the head case. An empty one stays here: its
// search finds nothing at once.
//
//histburst:noalloc
func (s *Summary) estimate3(w *region, t0, t1, t2 int64) (f0, f1, f2 float64) {
	if t2 >= s.headLow || s.starts == nil && s.wide != nil {
		return s.estimate3Head(w, t0, t1, t2)
	}
	i2 := s.searchFull(t2)
	if i2 < 0 {
		return 0, 0, 0 // t0 ≤ t1 ≤ t2 all precede the first segment
	}
	starts, first, float := s.starts, s.firstStart, s.floatValues()
	s2 := s.segAt(i2, first+int64(starts[i2]))
	if float {
		s2.Y = s.floatY(i2, s2.Y)
	}
	f2 = segVal(s2, t2)
	// An earlier instant that precedes the segment in hand lies between the
	// first start and that one, so its offset fits the narrow key — unless
	// it precedes the first start too, and with it every segment. The first
	// start, at offset 0, is at most the key: no search runs off the front.
	i1 := i2
	if s2.Start > t1 {
		if t1 < first {
			return 0, 0, f2 // t0 ≤ t1, so both precede the first segment
		}
		k1 := uint32(t1 - first)
		if i1--; starts[i1] > k1 {
			i1 = searchDown(starts, k1, i1)
		}
		s2 = s.segAt(i1, first+int64(starts[i1]))
		if float {
			s2.Y = s.floatY(i1, s2.Y)
		}
	}
	f1 = segVal(s2, t1) // s2 now holds segment i1
	i0 := i1
	if s2.Start > t0 {
		if t0 < first {
			return 0, f1, f2
		}
		k0 := uint32(t0 - first)
		if i0--; starts[i0] > k0 {
			i0 = searchDown(starts, k0, i0)
		}
		s2 = s.segAt(i0, first+int64(starts[i0]))
		if float {
			s2.Y = s.floatY(i0, s2.Y)
		}
	}
	f0 = segVal(s2, t0)
	return f0, f1, f2
}

// segVal evaluates a segment found for t (so t ≥ Start): the segment's line
// inside its span, the held final value in the flat gap after it, never
// below zero. It is the one evaluation of a line: every query, the
// downsampling cursor and the open window's line come through it. The
// distance from Start is taken unsigned, so a segment spanning more than
// 2⁶³ ticks still reads its own.
//
//histburst:noalloc
func segVal(s Segment, t int64) float64 {
	if t > s.End {
		t = s.End
	}
	v := s.Y + s.A*float64(uint64(t-s.Start))
	if v < 0 {
		v = 0
	}
	return v
}

// searchDown returns the largest i < hi with starts[i] <= k, or -1, by
// halving starts[:hi], one probe a step. Estimate3 calls it only once the
// adjacency probe has missed, when τ spans several segments.
//
//histburst:noalloc
func searchDown(starts []uint32, k uint32, hi int) int {
	if hi <= 0 || starts[0] > k {
		return -1
	}
	base, n := 0, hi
	for n > 1 {
		half := n >> 1
		if starts[base+half] <= k {
			base += half
		}
		n -= half
	}
	return base
}

// estimate3Head is Estimate3 for the uncommon case where the latest instant
// may hit the live head; the earlier instants may too, so each evaluation
// re-checks until one falls through to the segments.
//
//histburst:noalloc
func (s *Summary) estimate3Head(w *region, t0, t1, t2 int64) (f0, f1, f2 float64) {
	cc := centroidCache{}
	f2, ok2 := s.liveHead(w, t2, &cc)
	if !ok2 {
		f2 = s.segValue(s.searchFull(t2), t2)
	}
	f1, ok1 := s.liveHead(w, t1, &cc)
	if !ok1 {
		f1 = s.segValue(s.searchFull(t1), t1)
	}
	f0, ok0 := s.liveHead(w, t0, &cc)
	if !ok0 {
		f0 = s.segValue(s.searchFull(t0), t0)
	}
	return f0, f1, f2
}

// searchFull returns the largest i whose segment starts at or before t, or
// -1, over the whole summary. Boundary cases resolve against the
// summary-resident bounds without touching the array; steady streams produce
// segment starts that are near-uniform in time, so for longer summaries an
// interpolated first guess plus a doubling gallop brackets the answer in a
// couple of localized probes. The bracket (and any irregular distribution)
// falls through to the plain binary search. A wide cell is searched by
// searchWide.
//
//histburst:noalloc
func (s *Summary) searchFull(t int64) int {
	if t < s.firstStart {
		return -1
	}
	n := len(s.starts)
	if n == 0 {
		return s.searchWide(t)
	}
	if t >= s.lastStart {
		return n - 1
	}
	// firstStart <= t < lastStart, so the offset fits the narrow key and the
	// upper bound (first index with a start beyond it) lies in [1, n-1]. The
	// float guess is a heuristic only; the gallop establishes the true
	// bracket.
	starts, k := s.starts, uint32(t-s.firstStart)
	if n < 16 {
		// Tiny summaries: a predictable linear scan over one cache line
		// beats the mispredicting binary probes.
		i := n - 1
		for i >= 0 && starts[i] > k {
			i--
		}
		return i
	}
	g := int(float64(k) * s.invSpan)
	if g < 1 {
		g = 1
	} else if g > n-2 {
		g = n - 2
	}
	lo, hi := 0, n
	if starts[g] <= k {
		lo = g + 1
		step := 1
		for lo+step < hi {
			if starts[lo+step-1] > k {
				hi = lo + step - 1
				break
			}
			lo += step
			step <<= 1
		}
	} else {
		hi = g
		step := 1
		for hi-step > 0 {
			if starts[hi-step] <= k {
				lo = hi - step + 1
				break
			}
			hi -= step
			step <<= 1
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if starts[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// searchWide is searchFull over a wide cell's 64-bit offsets, or over no
// segments at all, for t ≥ firstStart: a plain binary search, since such a
// cell is rare and its starts are anything but near-uniform.
//
//histburst:noalloc
func (s *Summary) searchWide(t int64) int {
	if s.wide == nil {
		return -1
	}
	starts, k := s.wide.starts, uint64(t)-uint64(s.firstStart)
	lo, hi := 0, len(starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if starts[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}
