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
// in the flat gap after it.
//
//histburst:noalloc
func (s *Summary) segValue(i int, t int64) float64 {
	if i < 0 {
		return 0
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
// start column, and read each segment with segAt. An empty cell stays here:
// its search finds nothing at once.
//
//histburst:noalloc
func (s *Summary) estimate3(w *region, t0, t1, t2 int64) (f0, f1, f2 float64) {
	if t2 >= s.headLow {
		return s.estimate3Head(w, t0, t1, t2)
	}
	i2 := s.searchFull(t2)
	if i2 < 0 {
		return 0, 0, 0 // t0 ≤ t1 ≤ t2 all precede the first segment
	}
	key, first := s.key(), s.firstStart
	s2 := s.segAt(i2, first+int64(key.at(i2)))
	f2 = segVal(s2, t2)
	// An earlier instant that precedes the segment in hand lies between the
	// first start and that one, so its offset is a distance on the key —
	// unless it precedes the first start too, and with it every segment. The
	// first start, at offset 0, is at most the key: no search runs off the
	// front.
	i1 := i2
	if s2.Start > t1 {
		if t1 < first {
			return 0, 0, f2 // t0 ≤ t1, so both precede the first segment
		}
		k1 := uint64(t1) - uint64(first)
		if i1--; key.at(i1) > k1 {
			i1 = searchDown(key, k1, i1)
		}
		s2 = s.segAt(i1, first+int64(key.at(i1)))
	}
	f1 = segVal(s2, t1) // s2 now holds segment i1
	i0 := i1
	if s2.Start > t0 {
		if t0 < first {
			return 0, f1, f2
		}
		k0 := uint64(t0) - uint64(first)
		if i0--; key.at(i0) > k0 {
			i0 = searchDown(key, k0, i0)
		}
		s2 = s.segAt(i0, first+int64(key.at(i0)))
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

// searchDown returns the largest i < hi with key.at(i) <= k, or -1.
// Estimate3 calls it only once the adjacency probe has missed, when τ spans
// several segments.
//
//histburst:noalloc
func searchDown(key key, k uint64, hi int) int {
	if hi <= 0 || key.at(0) > k {
		return -1
	}
	return key.last(0, hi, k)
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
// summary-resident bounds without touching the columns; steady streams
// produce segment starts that are near-uniform in time, so for longer
// summaries an interpolated first guess plus a doubling gallop brackets the
// answer in a couple of localized probes. The bracket (and any irregular
// distribution) is halved without a branch on the probes (key.last): with
// the key's probes a load and a mask, that beats the branches a query at a
// random instant mispredicts.
//
//histburst:noalloc
func (s *Summary) searchFull(t int64) int {
	n := s.n
	if n == 0 || t < s.firstStart {
		return -1
	}
	if t >= s.lastStart {
		return n - 1
	}
	// firstStart <= t < lastStart, so the upper bound (first index with a
	// start beyond t) lies in [1, n-1]. The offset is an unsigned distance,
	// exact however far the starts spread. The float guess is a heuristic
	// only; the gallop establishes the true bracket.
	key, k := s.key(), uint64(t)-uint64(s.firstStart)
	if n < 16 {
		// Tiny summaries: a predictable linear scan over a few cache lines
		// beats the mispredicting binary probes.
		i := n - 1
		for i >= 0 && key.at(i) > k {
			i--
		}
		return i
	}
	g := int(float64(int64(k)) * s.invSpan)
	if g < 1 {
		g = 1
	} else if g > n-2 {
		g = n - 2
	}
	lo, hi := 0, n
	if key.at(g) <= k {
		lo = g + 1
		step := 1
		for lo+step < hi {
			if key.at(lo+step-1) > k {
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
			if key.at(hi-step) <= k {
				lo = hi - step + 1
				break
			}
			hi -= step
			step <<= 1
		}
	}
	// The bracket: the answer is in [lo−1, hi), and the start at lo−1 —
	// or, when lo is 0, the first, at offset 0 — is at most the key.
	return key.last(max(lo-1, 0), hi, k)
}
