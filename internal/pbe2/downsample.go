package pbe2

import (
	"fmt"
	"math"
	"sync"
)

// Downsampling re-summarizes finished PBE-2 summaries at lower fidelity: a
// wider error cap gamma and constraint instants snapped up to a res-spaced
// time grid. It is the kernel behind the segment store's time-decayed
// compaction tiers (Hokusai-style): old history trades accuracy for a much
// smaller piecewise-linear curve, without ever replaying the raw stream.
//
// The construction generalizes MergeFinished. parts is a time-ordered run;
// parts[k] holds the g source summaries whose true staircases sum to part
// k's staircase (for Count-Min width narrowing, the g cells that fold into
// one output cell). Writing F for the concatenated total staircase and
// S(t) = base_k + Σ_m est_m(t) for the sum of part k's member estimates on
// top of the exact count of all earlier parts, every member obeys
// F_m − γ_m ≤ est_m ≤ F_m at every instant, so S(t) ≤ F(t) ≤ S(t) + Γ_k
// with Γ_k = Σ_m γ_m. Feeding the output builder's feasible-region engine —
// the one construction uses, see region — the float range
// S − (γ − Γ_k) ≤ F̃(t) ≤ S at an instant t therefore pins the
// output curve inside [F(t) − γ, F(t)] there — the PBE-2 invariant at the
// new, wider cap. The instants fed are the members' segment breakpoints
// aligned up to the res grid (deduplicated), each part's boundary pin, and
// the exact global frontier; between two fed instants the output holds a
// value bracketed by the curve at the surrounding fed instants, so the
// only extra uncertainty is the true count's rise across that gap (the
// time-resolution loss the tier's Res metadata reports).
//
// Decomposing by exact part bases requires every arrival of part k to be
// strictly later than every arrival of part k−1 — the same constraint
// MergeFinished enforces via the virtual-pin check, and the reason the
// compactor never downsample-merges across an equal timestamp boundary.

// srcCursor evaluates one source summary at ascending instants in
// amortized O(1) per step, bit-identical to Summary.Estimate.
type srcCursor struct {
	s *Summary
	i int // largest segment index with Start ≤ the last queried t, or -1
}

//histburst:noalloc
func (c *srcCursor) est(t int64) float64 {
	s := c.s
	if t >= s.headLow {
		return float64(s.count)
	}
	for c.i+1 < s.n && s.start(c.i+1) <= t {
		c.i++
	}
	return s.segValue(c.i, t)
}

// memberIter streams one member's candidate constraint instants — its
// segment breakpoints aligned up to the res grid — in non-decreasing order.
type memberIter struct {
	cur   srcCursor
	j     int // next segment of cur.s to yield breakpoints from
	phase int8
	next  int64 // next aligned candidate; math.MaxInt64 when exhausted
}

//histburst:noalloc
func (m *memberIter) advance(res int64) {
	s := m.cur.s
	for m.j < s.n {
		if m.phase == 0 {
			m.phase = 1
			m.next = alignUp(s.start(m.j), res)
			return
		}
		raw := s.start(m.j) + s.segLen(m.j) + 1
		m.phase = 0
		m.j++
		if raw <= s.lastT {
			m.next = alignUp(raw, res)
			return
		}
	}
	m.next = math.MaxInt64
}

// alignUp snaps t up to the next multiple of res.
//
//histburst:noalloc
func alignUp(t, res int64) int64 {
	q := t / res
	if t%res != 0 && t > 0 {
		q++
	}
	return q * res
}

// dsScratch is the pooled per-call member state of the streaming kernel.
type dsScratch struct {
	members []memberIter
}

var dsScratchPool = sync.Pool{New: func() any { return new(dsScratch) }}

// validateDownsample checks the shared preconditions of both downsample
// paths and returns the per-part gamma sums.
func validateDownsample(parts [][]*Summary, gamma float64, res int64) error {
	if len(parts) == 0 {
		return fmt.Errorf("pbe2: downsample of zero parts")
	}
	if gamma < 1 || math.IsNaN(gamma) || math.IsInf(gamma, 0) {
		return fmt.Errorf("pbe2: downsample gamma must be at least 1, got %v", gamma)
	}
	if res < 1 {
		return fmt.Errorf("pbe2: downsample resolution must be at least 1, got %d", res)
	}
	for k, part := range parts {
		if len(part) == 0 {
			return fmt.Errorf("pbe2: downsample part %d has no members", k)
		}
		sum := 0.0
		for i, m := range part {
			if m == nil {
				return fmt.Errorf("pbe2: downsample part %d member %d is nil", k, i)
			}
			sum += m.gamma
		}
		if sum > gamma {
			return fmt.Errorf("pbe2: downsample gamma %v below part %d's summed source caps %v", gamma, k, sum)
		}
	}
	return nil
}

// partBounds returns part k's boundary pin (the earliest member constraint
// instant), frontier, element count and summed error caps; started reports
// whether any member holds data.
func partBounds(part []*Summary) (pin, lastT, count int64, gammaSum float64, outOfOrder int64, started bool) {
	pin = math.MaxInt64
	lastT = math.MinInt64
	for _, m := range part {
		gammaSum += m.gamma
		outOfOrder += m.outOfOrder
		count += m.count
		if m.count == 0 {
			continue
		}
		started = true
		if m.firstStart < pin {
			pin = m.firstStart
		}
		if m.lastT > lastT {
			lastT = m.lastT
		}
	}
	return pin, lastT, count, gammaSum, outOfOrder, started
}

// DownsampleInto builds into out one summary with error cap gamma and time
// resolution res covering the concatenation of parts: parts[k] is the group
// of source summaries whose true counts sum to part k's staircase, and parts
// are in strictly increasing time order. Sources are only read. out's
// columns keep their room to spare until Lay lays its level.
//
// The kernel streams: member breakpoints merge on the fly (no materialized
// candidate list), sources are evaluated through amortized-O(1) cursors,
// and the clip arena comes from the shared scratch pool, so a call does no
// allocation beyond the output's own segment columns.
//
//histburst:fastpath downsampleNaive
func DownsampleInto(out *Builder, parts [][]*Summary, gamma float64, res int64) error {
	if err := validateDownsample(parts, gamma, res); err != nil {
		return err
	}
	out.reset(gamma)
	scr := dsScratchPool.Get().(*dsScratch)
	defer dsScratchPool.Put(scr)

	var base, total, globalLast, totalOOO int64
	anyStarted := false
	lastFed := int64(math.MinInt64)
	prevLast := int64(math.MinInt64)

	for k := range parts {
		part := parts[k]
		pin, partLast, count, gammaSum, ooo, started := partBounds(part)
		totalOOO += ooo
		if !started {
			continue // contributes nothing, exactly as MergeFinished skips it
		}
		if anyStarted && pin < prevLast {
			out.rest()
			return fmt.Errorf("pbe2: time ranges overlap (part ends at %d, next starts at %d)", prevLast, pin)
		}
		// The part owns constraint instants up to the next part's boundary
		// pin; the last part runs to its own frontier, fed exactly.
		capT := partLast
		for j := k + 1; j < len(parts); j++ {
			nextPin, _, _, _, _, nextStarted := partBounds(parts[j])
			if nextStarted {
				capT = nextPin
				break
			}
		}
		slack := gamma - gammaSum

		members := scr.members[:0]
		for _, m := range part {
			it := memberIter{cur: srcCursor{s: m, i: -1}}
			it.advance(res)
			members = append(members, it)
		}
		scr.members = members

		sBase := float64(base)
		for {
			minC := int64(math.MaxInt64)
			for i := range members {
				if members[i].next < minC {
					minC = members[i].next
				}
			}
			if minC >= capT {
				break
			}
			if minC > lastFed {
				s := sBase
				for i := range members {
					s += members[i].cur.est(minC)
				}
				out.feedRange(rpoint{t: minC, hi: s, slack: slack})
				lastFed = minC
			}
			for i := range members {
				if members[i].next == minC {
					members[i].advance(res)
				}
			}
		}
		if capT > lastFed {
			s := sBase
			for i := range members {
				s += members[i].cur.est(capT)
			}
			out.feedRange(rpoint{t: capT, hi: s, slack: slack})
			lastFed = capT
		}

		base += count
		total += count
		if partLast > globalLast {
			globalLast = partLast
		}
		prevLast = partLast
		anyStarted = true
	}

	out.closeWindow()
	out.count = total
	out.outOfOrder = totalOOO
	if anyStarted {
		out.lastT = globalLast
		out.prevF = total
	}
	out.rest()
	return nil
}

// Downsample is DownsampleInto returning a fresh builder, its columns
// clipped.
func Downsample(parts [][]*Summary, gamma float64, res int64) (*Builder, error) {
	out := new(Builder)
	if err := DownsampleInto(out, parts, gamma, res); err != nil {
		return nil, err
	}
	out.clip()
	return out, nil
}
