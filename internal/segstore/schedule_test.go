package segstore

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"histburst"
	"histburst/internal/dyadic"
	"histburst/internal/exact"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// The store's contract, proved by one seeded harness. FuzzStoreSchedule
// decodes its input into a store configuration and a schedule of steps —
// appends, seal, compaction and scrub steps, checkpoints, crash + reopen,
// queries — and runs the schedule on a stepped store beside an exact
// oracle fed the admitted elements and an undecayed twin taking the same
// steps. After every step it asserts:
//
//	(a) N, Frontier and Rejected are the oracle's and no background error
//	    is on record; a wholly refused batch leaves every probed answer
//	    bit-identical;
//	(b) F − Envelope(t).Bound ≤ F̃ ≤ F, strictly, at every probed instant
//	    outside decayed spans and at Res-aligned ones inside them (a decayed
//	    span is bounded only on its grid); the upper side only where leaves
//	    are collision-free, since a Count-Min leaf counts colliding ids;
//	    past the frontier the envelope is empty, and the tier table ascends
//	    with widening γ;
//	(c) |b̃ − b| within the envelope composed over t, t−τ and t−2τ, where
//	    leaves are collision-free;
//	(d) on a query step, TOP holds four entries whose scores are POINT's to
//	    the bit, by score then id, and EVENTS reports only ids whose POINT
//	    reaches θ; neither misses an id the search must reach — one whose
//	    exact aggregate at every node above its leaf clears θ, or TOP's last
//	    score, by that node's share of the envelope (collision-free leaves);
//	    every such node scores within that share of its exact aggregate, and
//	    to the bit what the sealed segments alone score plus the heads'
//	    exact share; one sealed segment answers POINT, F, TIMES, EVENTS and
//	    TOP as its own detector;
//	(e) on a query step, BURSTY TIME's ranges agree with POINT;
//	(f) where the twin's segments in the window (t−2τ, t] are the store's,
//	    its POINT is the store's to the bit: decay leaves recent answers be;
//	(g) after crash + reopen, every acked element is back, every probed
//	    answer is bit-identical to the one before the crash, and the tier
//	    table is the same, cold but for Bytes and then resident;
//	(h) the same input run again takes the same layout step by step and
//	    leaves byte-identical manifest and segment files.
//
// The schedule ends by settling: seal and compaction steps must reach a
// fixed point, where every segment sits at least as deep as its age is
// due, the directory holds exactly the live segments' files, every rebuild
// the store refused is logged and remembered. A failing input replays with
//
//	go test -run 'FuzzStoreSchedule/<corpus file>' ./internal/segstore/

// A schedule's byte 0 is its configuration, bit by bit: K 64 or 1024 (0),
// fanout 2 or 4 (1), decay tiers (2), a time origin of 1.7·10⁹ or 1.7·10¹²
// (3), Count-Min leaves, K > d·w (4), and seals at 16 or 48 elements (5).
// Each later byte is a step, its low three bits the kind, the rest its
// argument.
const (
	opAppend     = iota // arg: batch size class (3 bits), gap class (2)
	opDisorder          // as opAppend, one element in four behind the frontier; gap class 3 refuses the whole batch
	opSeal              // a seal step
	opCompact           // a compaction step: decay, then merge
	opCheckpoint        // arg 1: Checkpoint(true), else Checkpoint(false)
	opScrub             // a scrub step
	opCrash             // copy the directory as a crash leaves it, reopen the copy
	opQuery             // arg: τ class (2 bits), θ = 2^(the rest)
)

const day = 86_400

var (
	batchSizes = [8]int{1, 3, 8, 15, 24, 40, 64, 100}
	batchGaps  = [4]int64{0, 2, 900, 21_600}
	// The τ of a query step: one tick, a few, a day, and one whose 2τ
	// overflows.
	schedTaus = [4]int64{1, 7, day, math.MaxInt64 - 5}
)

func scheduleConfig(b byte) (cfg Config, origin int64) {
	cfg = Config{K: 64, Gamma: 2, Seed: 7, D: 3, W: 32, SealEvents: 16, CompactFanout: 2}
	if b&1 != 0 {
		cfg.K, cfg.D, cfg.W = 1024, 4, 256
	}
	if b&16 != 0 {
		cfg.D, cfg.W = 3, 8
		if cfg.K == 1024 {
			cfg.D, cfg.W = 9, 32
		}
	}
	if b&2 != 0 {
		cfg.CompactFanout = 4
	}
	if b&4 != 0 {
		cfg.DecayTiers = []DecayTier{
			{Age: day, Gamma: 8, W: cfg.W / 2, Res: 600},
			{Age: 4 * day, Gamma: 32, W: cfg.W / 4, Res: 3600},
		}
	}
	origin = 1_700_000_000
	if b&8 != 0 {
		origin *= 1000
	}
	if b&32 != 0 {
		cfg.SealEvents = 48
	}
	return cfg, origin
}

// A sched is one run of a schedule: the store, its undecayed twin (nil
// without decay tiers), and the oracle.
type sched struct {
	t             *testing.T
	cfg, twinCfg  Config
	origin        int64
	collisionFree bool
	ids           []uint64 // the ids appended and probed
	s, twin       *Store
	oracle        *exact.Store
	rejected      int64    // refused since the last reopen
	logged        []string // the store's log lines since the last reopen
	answers       []uint64 // the last probe's answers, as float bits
	layouts       []string // the layout after each step, for (h)
	reach         reached
	probing       bool
}

// reached is what a run got to, for TestScheduleSeedsReach.
type reached struct {
	compacted, tier2, equalBoundaryDecayed, refusedBatch, crashWithFrozen, hugeTau, straddle bool
	oneSegment, refusedRebuild, crashDecayed                                                 bool
	nodes, twinAnswers, mustFind, mustRank                                                   int
	bytesToTwin                                                                              float64 // settled sealed bytes, decayed over undecayed
}

// runSchedule runs data's schedule, asserting the contract after every
// step when probing; it returns the run.
func runSchedule(t *testing.T, data []byte, probing bool) *sched {
	if len(data) == 0 {
		return nil
	}
	cfg, origin := scheduleConfig(data[0])
	r := &sched{t: t, cfg: cfg, origin: origin, probing: probing, oracle: exact.New(),
		collisionFree: cfg.K <= uint64(cfg.D*cfg.W)}
	r.cfg.Logf = func(format string, args ...any) { r.logged = append(r.logged, fmt.Sprintf(format, args...)) }
	for _, id := range []uint64{0, 1, 2, 3, 4, 5, 6, 7} {
		r.ids = append(r.ids, id*cfg.K/8+id%3) // spread over the id space, walked by the index
	}
	r.s = openStepped(t, t.TempDir(), r.cfg)
	if probing && len(cfg.DecayTiers) > 0 {
		r.twinCfg = cfg
		r.twinCfg.DecayTiers = nil
		r.twin = openStepped(t, t.TempDir(), r.twinCfg)
	}
	t.Cleanup(func() { r.close() })
	r.check("open")
	for i, b := range data[1:] {
		r.step(i, b)
		r.check(fmt.Sprintf("step %d (%#02x)", i, b))
	}
	for _, s := range r.stores() {
		settleWithin(t, s, 4*len(data)+16)
	}
	r.check("settling")
	r.checkSettled()
	if probing {
		r.checkRefusals()
		if r.twin != nil {
			r.reach.bytesToTwin = float64(sealedBytes(r.s)) / float64(sealedBytes(r.twin))
		}
	}
	return r
}

func (r *sched) stores() []*Store {
	if r.twin == nil {
		return []*Store{r.s}
	}
	return []*Store{r.s, r.twin}
}

func (r *sched) close() {
	for _, s := range r.stores() {
		if err := s.Close(); err != nil && !errors.Is(err, ErrClosed) {
			r.t.Error(err)
		}
	}
}

func (r *sched) step(i int, b byte) {
	t := r.t
	kind, arg := b&7, int(b>>3)
	switch kind {
	case opAppend, opDisorder:
		r.appendBatch(i, b)
	case opSeal:
		r.each(seal)
	case opCompact:
		r.each(compact)
	case opCheckpoint:
		for _, s := range r.stores() {
			if err := s.Checkpoint(arg&1 == 1); err != nil {
				t.Fatal(err)
			}
		}
	case opScrub:
		r.each(scrub)
	case opCrash:
		r.crash()
	case opQuery:
		if r.probing {
			r.query(schedTaus[arg&3], float64(int64(1)<<(arg>>2)))
		}
	}
	r.record()
}

func (r *sched) each(kind func(*Store) (bool, error)) {
	for _, s := range r.stores() {
		step(r.t, s, kind)
	}
}

// appendBatch generates a batch from the step's byte and its index and
// appends it to every store, checking each element's admission against
// the oracle's frontier: an element behind the newest one admitted is
// refused.
func (r *sched) appendBatch(i int, b byte) {
	t := r.t
	rng := rand.New(rand.NewSource(int64(i)<<8 | int64(b)))
	arg := int(b >> 3)
	n, gapClass := batchSizes[arg&7], arg>>3&3
	gap, refuseAll := batchGaps[gapClass], b&7 == opDisorder && gapClass == 3
	frontier := r.oracle.MaxTime()
	tm := max(frontier, r.origin)
	batch := make(stream.Stream, n)
	var admitted stream.Stream
	for j := range batch {
		if j > 0 && !refuseAll {
			tm += rng.Int63n(gap + 1)
		}
		el := stream.Element{Event: r.ids[rng.Intn(len(r.ids))], Time: tm}
		if refuseAll || b&7 == opDisorder && rng.Intn(4) == 0 {
			el.Time = tm - 1 - rng.Int63n(gap+2)
		}
		batch[j] = el
		if el.Time >= frontier {
			frontier = el.Time
			admitted = append(admitted, el)
		}
	}
	refused := int64(n - len(admitted))
	before := r.answers
	for _, s := range r.stores() {
		if n == 1 { // the one-element path, with its error
			err := s.Append(batch[0].Event, batch[0].Time)
			if (refused > 0) != errors.Is(err, stream.ErrOutOfOrder) || err != nil && refused == 0 {
				t.Fatalf("Append(%v) = %v with %d refused", batch[0], err, refused)
			}
			continue
		}
		appended, rej, err := s.AppendBatch(batch)
		if err != nil || appended != int64(len(admitted)) || rej != refused {
			t.Fatalf("AppendBatch: %d appended, %d refused (%v); the oracle admits %d, refuses %d", appended, rej, err, len(admitted), refused)
		}
	}
	r.rejected += refused
	for _, el := range admitted {
		r.oracle.Append(el.Event, el.Time)
	}
	if len(admitted) == 0 && r.probing {
		r.probe("a refused batch")
		if !slices.Equal(before, r.answers) {
			t.Fatalf("a wholly refused batch moved a probed answer")
		}
		r.reach.refusedBatch = true
	}
}

// crash copies each store's directory as a crash would leave it — every
// acked element in the log, the heads unsealed — and reopens the copy.
func (r *sched) crash() {
	t := r.t
	hs := r.s.Snapshot().Head()
	r.reach.crashWithFrozen = r.reach.crashWithFrozen || hs.Frozen > 0 && hs.Elements > 0
	before, tiers := r.answers, r.s.Snapshot().Tiers()
	r.reach.crashDecayed = r.reach.crashDecayed || len(tiers) > 1
	reopen := func(s *Store, cfg Config) *Store {
		dir := cloneDir(t, s.Dir())
		mustClose(t, s)
		return openStepped(t, dir, cfg)
	}
	r.s = reopen(r.s, r.cfg)
	if r.twin != nil {
		r.twin = reopen(r.twin, r.twinCfg)
	}
	r.rejected, r.logged = 0, nil
	if r.probing {
		// A reopened segment holds its file's bytes until a query touches
		// it: the tier table is the same but for Bytes straight after
		// Open, and in Bytes too once the probes have touched every segment.
		cold := r.s.Snapshot().Tiers()
		r.check("reopen")
		resident := r.s.Snapshot().Tiers()
		for i := range min(len(cold), len(tiers)) {
			cold[i].Bytes = tiers[i].Bytes
		}
		if !slices.Equal(before, r.answers) || !slices.Equal(cold, tiers) || !slices.Equal(resident, tiers) {
			t.Fatalf("crash + reopen moved a probed answer or the tier table: %+v cold, %+v resident, was %+v", cold, resident, tiers)
		}
	}
}

// record keeps the store's layout after a step, residency aside, for (h).
func (r *sched) record() {
	segs := r.s.Segments()
	for i := range segs {
		segs[i].Bytes, segs[i].Resident = 0, false
	}
	r.layouts = append(r.layouts, fmt.Sprintf("generation %d %+v", r.s.Generation(), segs))
}

// check asserts (a), then probes.
func (r *sched) check(when string) {
	t := r.t
	t.Helper()
	for _, s := range r.stores() {
		if s.N() != r.oracle.Len() || s.Frontier() != r.oracle.MaxTime() || s.Rejected() != r.rejected || s.Err() != nil {
			t.Fatalf("%s: N %d, frontier %d, rejected %d, error %v; the oracle holds %d up to %d, refused %d",
				when, s.N(), s.Frontier(), s.Rejected(), s.Err(), r.oracle.Len(), r.oracle.MaxTime(), r.rejected)
		}
	}
	if !r.probing {
		return
	}
	sn := r.s.Snapshot()
	for _, g := range sn.Segments() {
		r.reach.compacted = r.reach.compacted || g.Compacted
		r.reach.tier2 = r.reach.tier2 || g.Tier == 2
	}
	tiers := sn.Tiers()
	for i := 1; i < len(tiers); i++ {
		if tiers[i].Tier <= tiers[i-1].Tier || tiers[i].Gamma <= tiers[i-1].Gamma {
			t.Fatalf("%s: tier table not by ascending tier and widening γ: %+v", when, tiers)
		}
	}
	if env := sn.Envelope(sn.MaxTime() + 1<<40); env.Components != 0 || env.Bound != 0 {
		t.Fatalf("%s: envelope %+v past the frontier, want none: every curve is exact there", when, env)
	}
	if n, minT, _, _ := sn.v.head.snapshot(); n > 0 {
		last := sn.v.segs
		if len(sn.v.frozen) > 0 {
			_, _, maxT, _ := sn.v.frozen[len(sn.v.frozen)-1].snapshot()
			r.reach.straddle = r.reach.straddle || maxT == minT
		} else if len(last) > 0 {
			r.reach.straddle = r.reach.straddle || last[len(last)-1].meta.MaxT == minT
		}
	}
	r.probe(when)
}

// probeInstants are the instants every step probes: each segment's edges
// and middle, and the last two aligned down to the decay grid; the
// frontier and past it, the origin and before it.
func (r *sched) probeInstants(sn *Snapshot) []int64 {
	f := sn.MaxTime()
	qs := []int64{r.origin - 1, r.origin, f - 1, f, f + 1, r.origin + (f-r.origin)/3}
	for _, g := range sn.Segments() {
		mid := g.Start + (g.End-g.Start)/2
		qs = append(qs, g.Start-1, g.Start, mid, mid-mid%3600, g.End, g.End-g.End%600, g.End+1)
	}
	slices.Sort(qs)
	return slices.Compact(qs)
}

// onGrid reports whether t is an instant (b) bounds under env: any instant
// outside a decayed span, only Res-aligned ones inside.
func onGrid(env pbe.ErrorEnvelope, t int64) bool {
	return env.Resolution == 1 || t%env.Resolution == 0
}

// window returns the instants of b(t) over sp, the envelope composed over
// them, and whether (b) bounds all three.
func window(sn *Snapshot, t int64, sp pbe.Span) (t0, t1, t2 int64, bound float64, bounded bool) {
	t0, t1, t2 = sp.Instants(t)
	e0, e1, e2 := sn.Envelope(t0), sn.Envelope(t1), sn.Envelope(t2)
	return t0, t1, t2, e2.Bound + 2*e1.Bound + e0.Bound, onGrid(e0, t0) && onGrid(e1, t1) && onGrid(e2, t2)
}

// exactB is the oracle's b_e over the instants of a window.
func (r *sched) exactB(e uint64, t0, t1, t2 int64) float64 {
	return float64(r.oracle.CumFreq(e, t2) - 2*r.oracle.CumFreq(e, t1) + r.oracle.CumFreq(e, t0))
}

// probe asserts (b), (c) and (f) at every probe instant, every id and
// every τ, and keeps the answers.
func (r *sched) probe(when string) {
	sn := r.s.Snapshot()
	var twin *Snapshot
	if r.twin != nil {
		twin = r.twin.Snapshot()
	}
	r.answers = make([]uint64, 0, len(r.answers))
	for _, q := range r.probeInstants(sn) {
		env := sn.Envelope(q)
		for _, e := range r.ids {
			got, want := sn.CumulativeFrequency(e, q), float64(r.oracle.CumFreq(e, q))
			r.answers = append(r.answers, math.Float64bits(got))
			if onGrid(env, q) && (got < want-env.Bound || r.collisionFree && got > want) {
				r.t.Fatalf("%s: F̃(%d, %d) = %v outside [F − %v, F] with F = %v", when, e, q, got, env.Bound, want)
			}
			for _, tau := range schedTaus {
				sp := pbe.MustSpan(tau)
				got := sn.BurstinessOver(e, q, sp)
				r.answers = append(r.answers, math.Float64bits(got))
				t0, t1, t2, bound, bounded := window(sn, q, sp)
				if b := r.exactB(e, t0, t1, t2); r.collisionFree && bounded && math.Abs(got-b) > bound {
					r.t.Fatalf("%s: b̃(%d, %d, τ=%d) = %v, b = %v: outside the envelope %v", when, e, q, tau, got, b, bound)
				}
				if twin != nil && sameWindow(sn, twin, q, sp) {
					r.reach.twinAnswers++
					if w := twin.BurstinessOver(e, q, sp); math.Float64bits(w) != math.Float64bits(got) {
						r.t.Fatalf("%s: b̃(%d, %d, τ=%d) = %v, the undecayed twin %v over the same segments", when, e, q, tau, got, w)
					}
				}
			}
		}
	}
}

// sameWindow reports whether two snapshots hold the same segments in the
// window (t−2τ, t], and no decayed one.
func sameWindow(a, b *Snapshot, t int64, sp pbe.Span) bool {
	x, y := a.segsInWindow(t, sp), b.segsInWindow(t, sp)
	return slices.EqualFunc(x, y, func(g, h *Segment) bool {
		return g.meta.Tier == 0 && h.meta.Tier == 0 && g.meta.MinT == h.meta.MinT && g.meta.MaxT == h.meta.MaxT && g.meta.Elements == h.meta.Elements
	})
}

// query asserts (d) and (e) at every probe instant over span tau.
func (r *sched) query(tau int64, theta float64) {
	t := r.t
	sn := r.s.Snapshot()
	sp := pbe.MustSpan(tau)
	r.reach.hugeTau = r.reach.hugeTau || tau > math.MaxInt64/2
	qs := r.probeInstants(sn)
	for _, q := range qs {
		top, err := sn.TopBursty(q, 4, tau)
		if err != nil || len(top) != 4 {
			t.Fatalf("TopBursty(%d, 4, %d) = %v (%v), want four entries", q, tau, top, err)
		}
		for i, eb := range top {
			if b := sn.BurstinessOver(eb.Event, q, sp); math.Float64bits(b) != math.Float64bits(eb.Burstiness) ||
				i > 0 && !(eb.Burstiness < top[i-1].Burstiness || eb.Burstiness == top[i-1].Burstiness && eb.Event > top[i-1].Event) {
				t.Fatalf("TopBursty(%d, 4, %d) = %v: not POINT's scores (event %d: %v) by score, then id", q, tau, top, eb.Event, b)
			}
		}
		if _, err := sn.TopBursty(q, 0, tau); err == nil {
			t.Fatal("TopBursty with k = 0 accepted")
		}
		last := top[len(top)-1]
		for _, e := range r.ids {
			if b := sn.BurstinessOver(e, q, sp); (b > last.Burstiness || b == last.Burstiness && e < last.Event) && r.mustReach(sn, q, sp, e, last.Burstiness) {
				r.reach.mustRank++
				if !slices.ContainsFunc(top, func(eb histburst.EventBurstiness) bool { return eb.Event == e }) {
					t.Fatalf("TopBursty(%d, 4, %d) = %v passes over event %d at POINT %v", q, tau, top, e, b)
				}
			}
		}
		r.events(sn, q, tau, theta)
		if th := top[1].Burstiness; th > 0 { // an id's own score: θ at the edge
			r.events(sn, q, tau, th)
		}
		r.checkNodes(sn, q, sp)
	}
	for _, e := range r.ids {
		ranges, err := sn.BurstyTimes(e, theta, tau)
		if err != nil {
			t.Fatal(err)
		}
		probes := pbe.ShiftedBreakpoints(sn.breakpoints(e), sp, sn.MaxTime())
		for i, tr := range ranges {
			if tr.Start >= tr.End || tr.End > sn.MaxTime()+1 || i > 0 && tr.Start <= ranges[i-1].End {
				t.Fatalf("BurstyTimes(%d, %v, %d): ranges %v not disjoint, ascending, inside the history", e, theta, tau, ranges)
			}
			probes = append(probes, tr.Start, tr.End-1)
		}
		for _, q := range probes {
			i := sort.Search(len(ranges), func(i int) bool { return ranges[i].End > q })
			in := i < len(ranges) && ranges[i].Contains(q)
			if b := sn.BurstinessOver(e, q, sp); in != (b >= theta) {
				t.Fatalf("BurstyTimes(%d, %v, %d): t = %d in a range is %v, POINT %v", e, theta, tau, q, in, b)
			}
		}
	}
	r.oneSegment(sn, qs, tau, theta)
}

// events asserts that BURSTY EVENT at q over tau reports, in ascending
// order, every id the search must reach whose POINT reaches θ, and no other.
func (r *sched) events(sn *Snapshot, q, tau int64, theta float64) {
	sp := pbe.MustSpan(tau)
	ids, err := sn.BurstyEvents(q, theta, tau)
	if err != nil {
		r.t.Fatal(err)
	}
	for i, e := range ids {
		if b := sn.BurstinessOver(e, q, sp); !(b >= theta) || i > 0 && e <= ids[i-1] {
			r.t.Fatalf("BurstyEvents(%d, %v, %d) = %v: event %d at POINT %v", q, theta, tau, ids, e, b)
		}
	}
	for _, e := range r.ids {
		if b := sn.BurstinessOver(e, q, sp); b >= theta && r.mustReach(sn, q, sp, e, theta) {
			r.reach.mustFind++
			if !slices.Contains(ids, e) {
				r.t.Fatalf("BurstyEvents(%d, %v, %d) = %v misses event %d at POINT %v", q, theta, tau, ids, e, b)
			}
		}
	}
}

// mustReach reports whether the search must reach e's leaf at q: the leaves
// are collision-free, (b) bounds the window, and at every node above the
// leaf the exact aggregate's magnitude clears floor by the node's share of
// the envelope, so neither EVENTS' pruning (equation 6: no child reaches θ)
// nor TOP's cut (the k-th score ranks before the node) can pass it over.
func (r *sched) mustReach(sn *Snapshot, q int64, sp pbe.Span, e uint64, floor float64) bool {
	t0, t1, t2, bound, bounded := window(sn, q, sp)
	if !r.collisionFree || !bounded {
		return false
	}
	for _, h := range sn.shape.Heights() {
		if h > 0 && math.Abs(r.exactNode(h, e>>h, t0, t1, t2))-dyadic.SteerGamma(h, bound) <= floor {
			return false
		}
	}
	return true
}

// exactNode is the oracle's b of node agg at height h: its ids' sum.
func (r *sched) exactNode(h int, agg uint64, t0, t1, t2 int64) float64 {
	b := 0.0
	for _, e := range r.ids {
		if e>>h == agg {
			b += r.exactB(e, t0, t1, t2)
		}
	}
	return b
}

// checkNodes asserts that the summed index scores each node above the
// leaves as the sealed segments alone do plus the heads' exact share, to the
// bit, and, where leaves are collision-free, within its level's share of the
// envelope of the exact burstiness of the ids under it: what keeps BURSTY
// EVENT and TOP's pruning sound across segments and heads.
func (r *sched) checkNodes(sn *Snapshot, q int64, sp pbe.Span) {
	t0, t1, t2, bound, bounded := window(sn, q, sp)
	bare, v := *sn, *sn.v
	v.frozen, v.head = nil, newMemHead(0)
	bare.v = &v
	levels, sealed := sn.summedLevels(q, sp), bare.summedLevels(q, sp)
	for i, h := range sn.shape.Heights() {
		for agg := uint64(0); h > 0 && agg < sn.kfold>>h; agg++ {
			got, share := levels[i].Burstiness(agg, q, sp), 0.0
			for _, e := range r.ids {
				for _, hd := range sn.heads() {
					if e>>h == agg { // exact counts: the sum is exact whatever its order
						share += hd.burstiness(e, q, sp)
					}
				}
			}
			if want := sealed[i].Burstiness(agg, q, sp) + share; math.Float64bits(got) != math.Float64bits(want) {
				r.t.Fatalf("height %d node %d at %d, τ=%d: %v, the sealed segments plus the heads' %v = %v", h, agg, q, t2-t1, got, share, want)
			}
			if exact := r.exactNode(h, agg, t0, t1, t2); r.collisionFree && bounded && math.Abs(got-exact) > dyadic.SteerGamma(h, bound) {
				r.t.Fatalf("height %d node %d at %d, τ=%d: %v, exact %v, envelope %v", h, agg, q, t2-t1, got, exact, dyadic.SteerGamma(h, bound))
			}
		}
	}
	r.reach.nodes++
}

// oneSegment asserts (d)'s sealed half: a store of one sealed segment
// answers every query as that segment's detector does. (Over several
// segments the merged detector is no reference: its lines run on across a
// cell's silence between segments, from its last line to the next
// segment's first, where the summed cells hold their count.)
func (r *sched) oneSegment(sn *Snapshot, qs []int64, tau int64, theta float64) {
	t := r.t
	if len(sn.v.segs) != 1 || sn.Head().Elements > 0 {
		return
	}
	r.reach.oneSegment = true
	det := sn.v.segs[0].detector()
	same := func(what string, got, want any, err, werr error) {
		if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("one segment: %s %v (%v), its detector %v (%v)", what, got, err, want, werr)
		}
	}
	for _, q := range qs {
		top, err := sn.TopBursty(q, 4, tau)
		wantTop, werr := det.TopBursty(q, 4, tau)
		same(fmt.Sprintf("TOP(%d, 4, %d)", q, tau), top, wantTop, err, werr)
		ids, err := sn.BurstyEvents(q, theta, tau)
		wantIDs, werr := det.BurstyEvents(q, theta, tau)
		same(fmt.Sprintf("EVENTS(%d, %v, %d)", q, theta, tau), ids, wantIDs, err, werr)
		for _, e := range r.ids {
			b, err := sn.Burstiness(e, q, tau)
			wantB, werr := det.Burstiness(e, q, tau)
			same(fmt.Sprintf("b̃(%d, %d, %d)", e, q, tau), math.Float64bits(b), math.Float64bits(wantB), err, werr)
			f, wantF := sn.CumulativeFrequency(e, q), det.CumulativeFrequency(e, q)
			same(fmt.Sprintf("F̃(%d, %d)", e, q), math.Float64bits(f), math.Float64bits(wantF), nil, nil)
		}
	}
	for _, e := range r.ids {
		got, err := sn.BurstyTimes(e, theta, tau)
		want, werr := det.BurstyTimes(e, theta, tau)
		same(fmt.Sprintf("TIMES(%d, %v, %d)", e, theta, tau), got, want, err, werr)
	}
}

// checkSettled asserts the settled layout: every segment at least as deep
// as its age is due, and only the live segments' files on disk.
func (r *sched) checkSettled() {
	t := r.t
	segs := r.s.Segments()
	live := make(map[string]bool)
	for i, g := range segs {
		live[g.File] = true
		if due := r.s.targetTier(r.s.Frontier() - g.End); g.Tier < due {
			t.Fatalf("segment %d [%d, %d] is due tier %d, holds %d: %+v", g.ID, g.Start, g.End, due, g.Tier, segs)
		}
		if i > 0 && g.Start == segs[i-1].End && g.Tier > 0 && segs[i-1].Tier > 0 {
			r.reach.equalBoundaryDecayed = true
		}
	}
	files, err := filepath.Glob(filepath.Join(r.s.Dir(), segFilePrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !live[filepath.Base(f)] {
			t.Fatalf("%s left beside %d live segments", filepath.Base(f), len(segs))
		}
	}
	if len(files) != len(segs) {
		t.Fatalf("%d segment files for %d live segments", len(files), len(segs))
	}
}

// checkRefusals asserts that every rebuild the store refused is logged and
// remembered, so later scans pass its run over, and nothing else is.
func (r *sched) checkRefusals() {
	logged := make(map[string]bool)
	for _, l := range r.logged {
		what, rest, ok := strings.Cut(strings.TrimPrefix(l, "segstore: "), " of run ")
		key, _, skipped := strings.Cut(rest, " skipped: ")
		if !ok || !skipped {
			continue
		}
		if what == "decay" {
			key = decayKey(nil) + key
		}
		logged[key] = true
		r.reach.refusedRebuild = r.reach.refusedRebuild || what == "compaction"
	}
	if !maps.Equal(logged, r.s.noMerge) {
		r.t.Fatalf("refused runs %v, logged %v", r.s.noMerge, logged)
	}
}

func sealedBytes(s *Store) (n int) {
	for _, g := range s.Segments() {
		n += g.Bytes
	}
	return n
}

// durableFiles reads the manifest and segment files of dir.
func durableFiles(t *testing.T, dir string) map[string]string {
	files := dirContents(t, dir)
	maps.DeleteFunc(files, func(name, _ string) bool { return name != ManifestName && !strings.HasPrefix(name, segFilePrefix) })
	return files
}

// checkSchedule runs data's schedule and asserts (a)–(h).
func checkSchedule(t *testing.T, data []byte) *sched {
	r := runSchedule(t, data, true)
	if r == nil {
		return nil
	}
	again := runSchedule(t, data, false)
	for i := range r.layouts {
		if r.layouts[i] != again.layouts[i] {
			t.Fatalf("step %d: the replay's layout differs:\n%s\n%s", i, r.layouts[i], again.layouts[i])
		}
	}
	if a, b := durableFiles(t, r.s.Dir()), durableFiles(t, again.s.Dir()); !maps.Equal(a, b) {
		t.Fatalf("the replay left different files: %d vs %d manifest and segment files", len(a), len(b))
	}
	return r
}

// A named seed reaches a scenario a hand-written test once pinned; the
// schedule helpers below spell its steps.
type namedSeed struct {
	name    string
	data    []byte
	reaches func(reached) bool
}

func schedule(cfg byte, steps ...byte) []byte { return append([]byte{cfg}, steps...) }

// add appends size-class sc elements at gap class gc; disorder the same
// with some behind the frontier, refuse a batch wholly behind it.
func add(sc, gc byte) byte      { return opAppend | sc<<3 | gc<<6 }
func disorder(sc, gc byte) byte { return opDisorder | sc<<3 | gc<<6 }
func refuse(sc byte) byte       { return opDisorder | sc<<3 | 3<<6 }
func checkpoint(all bool) byte {
	if all {
		return opCheckpoint | 1<<3
	}
	return opCheckpoint
}
func query(tc, log2Theta byte) byte { return opQuery | tc<<3 | log2Theta<<5 }

var (
	seedCompacted = namedSeed{"compacted",
		schedule(0, add(6, 1), add(6, 1), add(6, 2), opCompact, query(2, 2), opCompact, add(5, 1), checkpoint(true), query(1, 3)),
		func(r reached) bool { return r.compacted && r.nodes > 0 && r.mustFind > 0 && r.mustRank > 0 }}
	seedTier2 = namedSeed{"decayed to tier 2",
		schedule(4, add(7, 3), add(7, 3), opSeal, opCompact, add(7, 2), opCompact, query(2, 3), add(5, 1), opCompact, query(1, 2), opCrash, add(7, 3), opCompact),
		func(r reached) bool { return r.tier2 && r.twinAnswers > 0 && r.crashDecayed && r.bytesToTwin < 0.5 }}
	seedEqualBoundary = namedSeed{"an equal-boundary run left unmerged and decayed alone",
		schedule(4, add(3, 2), checkpoint(true), add(2, 0), checkpoint(true), opCompact, add(7, 3), add(7, 3)),
		func(r reached) bool { return r.equalBoundaryDecayed && r.refusedRebuild && r.bytesToTwin < 0.5 }}
	seedRefused = namedSeed{"a refused append",
		schedule(0, add(4, 1), refuse(3), disorder(5, 2), add(0, 1), opCrash, refuse(0), add(0, 0), disorder(4, 1)),
		func(r reached) bool { return r.refusedBatch }}
	seedCrash = namedSeed{"a crash with an unsealed head and frozen heads",
		schedule(0, add(6, 1), opCrash, query(0, 1), add(3, 2), opCrash),
		func(r reached) bool { return r.crashWithFrozen }}
	seedHugeTau = namedSeed{"τ near 2⁶³",
		schedule(32, add(3, 1), query(3, 4), checkpoint(true), query(3, 4)),
		func(r reached) bool { return r.hugeTau && r.oneSegment && r.mustRank > 0 }}
	seedStraddle = namedSeed{"a live head straddling a seal",
		schedule(0, add(2, 1), add(4, 0), checkpoint(false), add(3, 0), checkpoint(true), add(3, 0), opSeal, query(1, 2)),
		func(r reached) bool { return r.straddle && r.mustFind > 0 && r.mustRank > 0 }}
	seedCountMin = namedSeed{"Count-Min leaves",
		schedule(16|32, add(4, 1), checkpoint(true), query(1, 2), add(7, 1), query(2, 3)),
		func(r reached) bool { return r.oneSegment && r.refusedRebuild }}
	seedCountMin1024 = namedSeed{"K = 1024 Count-Min leaves of nine rows",
		schedule(17|32, add(4, 1), checkpoint(true), query(1, 1), add(7, 1), query(2, 2)),
		func(r reached) bool { return r.oneSegment }}
)

var scheduleSeeds = []namedSeed{seedCompacted, seedTier2, seedEqualBoundary, seedRefused, seedCrash,
	seedHugeTau, seedStraddle, seedCountMin, seedCountMin1024}

func FuzzStoreSchedule(f *testing.F) {
	for _, s := range scheduleSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return // a schedule's cost grows with its length; long ones add nothing short ones cannot reach
		}
		checkSchedule(t, data)
	})
}

// TestScheduleSeedsReach: each named seed gets to the scenario it stands
// for, so a change in the schedule's encoding fails here instead of
// quietly dropping coverage.
func TestScheduleSeedsReach(t *testing.T) {
	for _, s := range scheduleSeeds {
		t.Run(s.name, s.run)
	}
}

// run runs the seed under the harness and asserts it reaches its scenario.
func (s namedSeed) run(t *testing.T) {
	if len(s.data) > 64 {
		t.Fatalf("seed of %d bytes, the fuzz target takes at most 64", len(s.data))
	}
	if r := checkSchedule(t, s.data); !s.reaches(r.reach) {
		t.Fatalf("the seed got to %+v", r.reach)
	}
}

// Scenario tests the harness replaced keep their names as entry points to
// the seed that now reaches each scenario, under every assertion (a)–(h).
// Cross-segment answers: (b), (c), (d) with its completeness half, (e).
func TestMultiSegmentWithinGammaEnvelope(t *testing.T)   { seedCompacted.run(t) }
func TestCompactedStoreStillWithinEnvelope(t *testing.T) { seedCompacted.run(t) }
func TestCompactionMergesRuns(t *testing.T)              { seedCompacted.run(t) }
func TestBurstyEventsCrossSegment(t *testing.T)          { seedCompacted.run(t) }
func TestTopBurstyCrossSegment(t *testing.T)             { seedCompacted.run(t) }
func TestBurstyTimesCrossSegment(t *testing.T)           { seedCompacted.run(t) }

// A live head beside sealed segments, a burst split by a seal: (d)'s
// completeness and its node = sealed + heads' share, (a) for the duplicate
// timestamps either side of the seal.
func TestTopBurstyStraddlingSeal(t *testing.T)           { seedStraddle.run(t) }
func TestEventSearchWithLiveHead(t *testing.T)           { seedStraddle.run(t) }
func TestDuplicateTimestampsStraddlingSeal(t *testing.T) { seedStraddle.run(t) }

// One segment answers as its detector, τ whose 2τ overflows included.
func TestLargeTauSaturates(t *testing.T) { seedHugeTau.run(t) }
func TestSingleSegmentMatchesMonolithicExactly(t *testing.T) {
	t.Run("collision-free-K64-D3-W32", seedHugeTau.run)
}
func TestBurstyTimesAgreesWithPoint(t *testing.T) { seedCountMin1024.run(t) }

// Decay: (f) against the twin, (b) on the grid, the settled due tiers, the
// tier table across reopen, fewer bytes than the twin, refused runs logged.
func TestSteppedStoreIsReplayable(t *testing.T)          { seedTier2.run(t) }
func TestDecayLongHorizon(t *testing.T)                  { seedTier2.run(t) }
func TestEqualBoundarySegmentsDecayAlone(t *testing.T)   { seedEqualBoundary.run(t) }
func TestEqualBoundarySegmentsStayUnmerged(t *testing.T) { seedEqualBoundary.run(t) }

// Refused appends, before and after a reopen: (a).
func TestOutOfOrderAppendRejected(t *testing.T)       { seedRefused.run(t) }
func TestOutOfOrderBehindSealedFrontier(t *testing.T) { seedRefused.run(t) }
