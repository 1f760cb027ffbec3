package segstore

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"histburst"
	"histburst/internal/stream"
)

// A Segment is one immutable time slice of the history: a finished PBE-2
// detector covering [MinT, MaxT], plus the manifest metadata describing it.
// Segments are never mutated after publication — a merge or decay reads the
// finished ones and swaps a new Segment in (rebuildOnce) — so queries read
// them without locks.
//
// A segment a seal, merge or decay just built is resident: its detector is
// in memory. One recovered by Open is only verified: it holds the bytes of
// its file — checked against the manifest as far as bytes can be (see
// Store.verifySegment) — and decodes them when a query, merge or decay first
// needs the detector. Whatever only describes a segment reads meta and
// bytes() and leaves it as it is.
type Segment struct {
	meta SegmentMeta

	// det is the decoded detector, nil until first touch; immutable once
	// set and queried read-only.
	//
	//histburst:atomic
	det atomic.Pointer[histburst.Detector]

	// fileBytes is the size of the verified file a recovered segment was
	// opened from (0 for one built in this process). Immutable.
	fileBytes int
	// owner quarantines the segment if its verified bytes fail to decode,
	// and logs the first touch. Immutable; set whenever raw is.
	owner *Store

	mu sync.Mutex
	// raw is guarded by mu: the verified file bytes, dropped by the first
	// touch whether or not they decoded.
	raw []byte
}

// residentSegment wraps a detector built in this process.
func residentSegment(meta SegmentMeta, det *histburst.Detector) *Segment {
	g := &Segment{meta: meta}
	g.det.Store(det)
	return g
}

// detector returns the segment's detector, decoding it on first touch, or
// nil when the verified bytes turned out not to decode — the segment is
// then already on its way to quarantine and callers answer without it.
// Must not be called with Store.mu held: a failed decode takes it.
func (g *Segment) detector() *histburst.Detector {
	if det := g.det.Load(); det != nil {
		return det
	}
	return g.decode()
}

// decode is the first touch. Concurrent first touches queue on mu and find
// the detector the first of them stored.
func (g *Segment) decode() *histburst.Detector {
	g.mu.Lock()
	if det := g.det.Load(); det != nil || g.raw == nil {
		g.mu.Unlock()
		return det
	}
	t0 := time.Now()
	det, err := histburst.Decode(g.raw)
	g.raw = nil
	if err == nil {
		g.det.Store(det)
	}
	g.mu.Unlock()
	if err != nil {
		// The checksum held, so this is not rot: the file was written wrong
		// or replaced. Same remedy — out of service, evidence kept.
		if qerr := g.owner.quarantine(g.meta, fmt.Errorf("segstore: segment %d: %w", g.meta.ID, err)); qerr != nil {
			g.owner.logf("segstore: %v", qerr)
		}
		return nil
	}
	g.owner.logf("segstore: segment %d decoded on first touch: %d elements, %d bytes, %s",
		g.meta.ID, g.meta.Elements, g.fileBytes, time.Since(t0))
	return det
}

// resident reports whether the detector is decoded.
func (g *Segment) resident() bool { return g.det.Load() != nil }

// bytes is what the segment holds in memory now: the decoded summary when
// resident, the verified file bytes when not.
func (g *Segment) bytes() int {
	if det := g.det.Load(); det != nil {
		return det.Bytes()
	}
	return g.fileBytes
}

// level returns the segment's size class for tiered compaction: 0 for
// freshly sealed segments, climbing by one for every factor of fanout in
// element count. Compaction merges runs of equal-level neighbors, so the
// merged result lands one class up and each element is rewritten
// O(log_fanout(N/SealEvents)) times overall.
func (g *Segment) level(sealEvents int64, fanout int64) int {
	lvl := 0
	threshold := sealEvents * fanout
	for threshold > 0 && g.meta.Elements >= threshold && lvl < 62 {
		lvl++
		threshold *= fanout
	}
	return lvl
}

// SegmentInfo is the exported introspection record for one segment
// (the /v1/segments endpoint serves these). The fidelity fields are zero
// for full-fidelity segments and report the decay tier's coarser summary
// parameters otherwise.
type SegmentInfo struct {
	ID        uint64 `json:"id"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Elements  int64  `json:"elements"`
	Bytes     int    `json:"bytes"`
	File      string `json:"file,omitempty"`
	Compacted bool   `json:"compacted"`
	// Resident reports whether the segment's detector is decoded in memory;
	// Bytes is then the decoded summary, otherwise the verified file bytes
	// held until a query first touches the segment.
	Resident bool `json:"resident"`

	Tier  int     `json:"tier,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	W     int     `json:"w,omitempty"`
	Res   int64   `json:"res,omitempty"`
}

// A memHead is the mutable in-memory head segment: live appends land here
// as exact curves — one timestamp sequence per event, the head's only copy
// of its elements — which is cheap to query exactly and cheap to discard
// once sealed into a sketch. The sealer and the WAL rotation read the head
// back as one time-ordered stream through inOrder, a k-way merge of the
// sequences. A head freezes exactly once — freeze flips the flag under the
// lock, after which its sequences are immutable and the sealer may merge
// them without locking.
//
// Per-event timestamps live in chunked slabs: each event's sequence is a
// list of fixed-size chunks carved from head-owned slab allocations, so a
// busy head performs one slab allocation per headSlabSize timestamps instead
// of one grow-and-copy per event per doubling. Closed chunks are always full
// (headChunk entries), which lets the count queries skip straight to the one
// boundary chunk by arithmetic.
type memHead struct {
	mu sync.RWMutex

	// frozen, byEvent, slab/slabOff/seqArena, started, minT, maxT and n are
	// guarded by mu.
	frozen  bool
	started bool
	minT    int64
	maxT    int64
	n       int64
	byEvent map[uint64]*eventSeq

	// slab is the current timestamp arena; chunks are carved off at slabOff.
	slab    []int64
	slabOff int
	// seqArena batches eventSeq headers the same way, one allocation per
	// seqArenaSize first-seen events.
	seqArena []eventSeq

	// floor is the store's time frontier when this head was created —
	// appends strictly below it are out of order. Immutable after creation.
	floor int64
	// sealID is the segment ID reserved at freeze time; set before the head
	// enters the frozen queue and immutable afterwards.
	sealID uint64
}

const (
	// headChunk is the per-event chunk size: small enough that a long tail
	// of rare events wastes at most one part-filled chunk each, large enough
	// that hot events append through pointer-free chunk memory.
	headChunk = 32
	// headSlabSize is the number of timestamps per slab allocation.
	headSlabSize = 4096
	// seqArenaSize is the number of eventSeq headers per arena allocation.
	seqArenaSize = 64
)

// eventSeq is one event's timestamp sequence inside the head: zero or more
// full closed chunks plus the open chunk being filled. Timestamps are
// appended in non-decreasing order, so every chunk is sorted and chunk time
// ranges ascend.
type eventSeq struct {
	chunks [][]int64
	open   []int64
	n      int64
}

// countAtOrBefore returns how many timestamps are ≤ t: binary search for the
// boundary chunk (closed chunks are always full, so the chunks before it
// contribute len·headChunk by arithmetic), then binary search inside it.
func (q *eventSeq) countAtOrBefore(t int64) int64 {
	if q == nil || q.n == 0 {
		return 0
	}
	lo, hi := 0, len(q.chunks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.chunks[mid][headChunk-1] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	cnt := int64(lo) * headChunk
	tail := q.open
	if lo < len(q.chunks) {
		tail = q.chunks[lo]
	}
	a, b := 0, len(tail)
	for a < b {
		mid := int(uint(a+b) >> 1)
		if tail[mid] <= t {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return cnt + int64(a)
}

// countIn returns how many timestamps land in [lo, hi].
func (q *eventSeq) countIn(lo, hi int64) int64 {
	if q == nil || q.n == 0 || hi < lo {
		return 0
	}
	return q.countAtOrBefore(hi) - q.countAtOrBefore(lo-1)
}

// last returns the most recent timestamp; q must be non-empty. Closed chunks
// are full, so only the open chunk can be empty (after popLast).
func (q *eventSeq) last() int64 {
	if len(q.open) > 0 {
		return q.open[len(q.open)-1]
	}
	return q.chunks[len(q.chunks)-1][headChunk-1]
}

// popLast removes the most recent timestamp (the freeze tail split).
func (q *eventSeq) popLast() {
	if len(q.open) == 0 && len(q.chunks) > 0 {
		q.open = q.chunks[len(q.chunks)-1]
		q.chunks = q.chunks[:len(q.chunks)-1]
	}
	q.open = q.open[:len(q.open)-1]
	q.n--
}

// materialize returns the sequence as one contiguous sorted slice.
func (q *eventSeq) materialize() stream.TimestampSeq {
	if q == nil || q.n == 0 {
		return nil
	}
	out := make(stream.TimestampSeq, 0, q.n)
	for _, c := range q.chunks {
		out = append(out, c...)
	}
	return append(out, q.open...)
}

// appendTS appends one timestamp to q, carving a fresh chunk from the head's
// slab when the open one fills.
func (h *memHead) appendTS(q *eventSeq, t int64) {
	if len(q.open) == cap(q.open) {
		if cap(q.open) > 0 {
			q.chunks = append(q.chunks, q.open)
		}
		if h.slabOff+headChunk > len(h.slab) {
			h.slab = make([]int64, headSlabSize)
			h.slabOff = 0
		}
		q.open = h.slab[h.slabOff : h.slabOff : h.slabOff+headChunk]
		h.slabOff += headChunk
	}
	q.open = append(q.open, t)
	q.n++
}

// seqFor returns e's sequence, creating it from the header arena on first
// sight.
func (h *memHead) seqFor(e uint64) *eventSeq {
	if q, ok := h.byEvent[e]; ok {
		return q
	}
	if len(h.seqArena) == 0 {
		h.seqArena = make([]eventSeq, seqArenaSize)
	}
	q := &h.seqArena[0]
	h.seqArena = h.seqArena[1:]
	h.byEvent[e] = q
	return q
}

func newMemHead(floor int64) *memHead {
	return &memHead{floor: floor, byEvent: make(map[uint64]*eventSeq)}
}

// sealLimits carries the head-size thresholds appendBatch checks against.
type sealLimits struct {
	events int64 // freeze once the head holds this many elements (0 = off)
	span   int64 // freeze once maxT−minT reaches this (0 = off)
}

// appendBatch ingests a batch of elements under a single lock acquisition,
// validating ordering once per element against the running frontier
// (rejects are counted and skipped). It stops early when the head must be
// frozen first — the head is already frozen, or it is full and the next
// timestamp advances past maxT (the boundary where sealing keeps segment
// time ranges strictly increasing); consumed reports how many leading
// elements were handled (accepted+rejected) so the caller can freeze and
// retry the remainder on the fresh head.
//
//histburst:fastpath append
func (h *memHead) appendBatch(elems stream.Stream, kfold uint64, lim sealLimits) (consumed int, accepted, rejected int64, needFreeze bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, el := range elems {
		if h.frozen {
			return i, accepted, rejected, true
		}
		t := el.Time
		if t < h.floor || (h.started && t < h.maxT) {
			rejected++
			continue
		}
		if h.started && t > h.maxT &&
			((lim.events > 0 && h.n >= lim.events) || (lim.span > 0 && h.maxT-h.minT >= lim.span)) {
			return i, accepted, rejected, true
		}
		if !h.started {
			h.minT = t
			h.started = true
		}
		e := el.Event % kfold
		h.maxT = t
		h.n++
		h.appendTS(h.seqFor(e), t)
		accepted++
	}
	return len(elems), accepted, rejected, false
}

// freeze marks the head immutable. When keepTail is true the elements at
// the final timestamp are split off and returned instead of frozen, so the
// sealed slice ends strictly before the store frontier and the next segment
// merges cleanly (MergeAppend requires strictly increasing boundaries); the
// split is skipped when every element shares one timestamp. The tail is
// popped off the end of each event's sequence and maxT recomputed from what
// is left; it is owned by the caller, every element at the old maxT, in no
// particular order.
func (h *memHead) freeze(keepTail bool) (tail stream.Stream) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.frozen {
		return nil
	}
	if keepTail && h.n > 0 && h.minT < h.maxT {
		maxT := h.minT
		for e, q := range h.byEvent {
			for q.n > 0 && q.last() == h.maxT {
				q.popLast()
				tail = append(tail, stream.Element{Event: e, Time: h.maxT})
			}
			if q.n > 0 && q.last() > maxT {
				maxT = q.last()
			}
		}
		h.n -= int64(len(tail))
		h.maxT = maxT
	}
	h.frozen = true
	return tail
}

// seqCursor is inOrder's read position in one event's sequence: cur is the
// unread part of the chunk being read — never empty while the cursor is
// live — and chunks, then open, what follows it.
type seqCursor struct {
	cur    []int64
	chunks [][]int64
	open   []int64
}

// refill moves c on to its next chunk, reporting false when none is left.
// Closed chunks are full; only the open one can be empty.
func (c *seqCursor) refill() bool {
	if len(c.chunks) > 0 {
		c.cur, c.chunks = c.chunks[0], c.chunks[1:]
		return true
	}
	c.cur, c.open = c.open, nil
	return len(c.cur) > 0
}

// mergeKey is a cursor's next timestamp and the cursor's index (spentCur
// once it has nothing left).
type mergeKey struct {
	t   int64
	cur int
}

// spentCur marks the key of an exhausted cursor, whose t is MaxInt64.
const spentCur = -1

// before reports whether a comes first: an earlier timestamp, or the same
// one under a smaller event id, ids being the cursors' event ids. A spent
// key comes after every live one, even a live one at MaxInt64.
func (a mergeKey) before(b mergeKey, ids []uint64) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.cur != spentCur && (b.cur == spentCur || ids[a.cur] < ids[b.cur])
}

// inOrder calls fn for every element of the head in time order, equal
// timestamps in ascending event id: a k-way merge of the per-event
// sequences, each already sorted — how the sealer and the WAL rotation read
// a head as one stream. The sequences are captured under the read lock and
// merged after it drops, so fn runs unlocked; that is safe because appends
// only write past a captured length and nothing rewrites a timestamp below
// it.
//
// The merge is a loser tree: node p of an implicit tree over the k cursors
// (leaf i at k+i, parent p/2) holds the key that lost the match played
// there, so after the winner advances one pass up its path — lg k
// comparisons against keys held in the nodes themselves — finds the next.
// Only a tie on t reads the event ids. No sort and no materialized stream:
// the elements go from the chunks straight to fn.
func (h *memHead) inOrder(fn func(e uint64, t int64)) {
	h.mu.RLock()
	ids := make([]uint64, 0, len(h.byEvent))
	cursors := make([]seqCursor, 0, len(h.byEvent))
	for e, q := range h.byEvent {
		c := seqCursor{chunks: q.chunks, open: q.open}
		if c.refill() {
			ids = append(ids, e)
			cursors = append(cursors, c)
		}
	}
	h.mu.RUnlock()

	k := len(cursors)
	if k == 0 {
		return
	}
	// Play every match once, bottom-up, the winners in a scratch row.
	losers := make([]mergeKey, k)
	winners := make([]mergeKey, 2*k)
	for i, c := range cursors {
		winners[k+i] = mergeKey{t: c.cur[0], cur: i}
	}
	for p := k - 1; p >= 1; p-- {
		a, b := winners[2*p], winners[2*p+1]
		if b.before(a, ids) {
			a, b = b, a
		}
		winners[p], losers[p] = a, b
	}
	w := winners[1]
	for live := k; ; {
		leaf := k + w.cur
		c := &cursors[w.cur]
		fn(ids[w.cur], w.t)
		c.cur = c.cur[1:]
		if len(c.cur) > 0 || c.refill() {
			w.t = c.cur[0]
		} else {
			if live--; live == 0 {
				return
			}
			w = mergeKey{t: math.MaxInt64, cur: spentCur}
		}
		// Which key wins a match is data the branch predictor cannot
		// learn; spelled this way the swap compiles to conditional moves.
		for p := leaf / 2; p >= 1; p /= 2 {
			l := losers[p]
			lFirst := l.t < w.t
			if l.t == w.t {
				lFirst = l.before(w, ids)
			}
			if lFirst {
				l, w = w, l
			}
			losers[p] = l
		}
	}
}

// frontier returns the newest timestamp the head holds, or its floor while
// it holds none.
func (h *memHead) frontier() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.started {
		return h.maxT
	}
	return h.floor
}

// snapshot returns the head's counters in one consistent read.
func (h *memHead) snapshot() (n, minT, maxT int64, started bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.n, h.minT, h.maxT, h.started
}

// countAtOrBefore returns the exact cumulative frequency F_e(t) of the
// head's slice of the stream.
func (h *memHead) countAtOrBefore(e uint64, t int64) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return float64(h.byEvent[e].countAtOrBefore(t))
}

// burstiness returns the head's exact contribution to b_e(t): cumulative
// frequencies of time-disjoint slices add, so equation (2) distributes over
// the slices term by term.
func (h *memHead) burstiness(e uint64, t, tau int64) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ts := h.byEvent[e]
	return float64(ts.countAtOrBefore(t) - 2*ts.countAtOrBefore(t-tau) + ts.countAtOrBefore(t-2*tau))
}

// arrivals returns a copy of e's timestamps in the head.
func (h *memHead) arrivals(e uint64) stream.TimestampSeq {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.byEvent[e].materialize()
}

// eventsInWindow returns the ids with at least one arrival in [lo, hi] —
// the head's candidate set for the bursty-event search.
func (h *memHead) eventsInWindow(lo, hi int64) []uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []uint64
	for e, ts := range h.byEvent {
		if ts.countIn(lo, hi) > 0 {
			out = append(out, e)
		}
	}
	return out
}

// activeIn reports whether the head holds any arrival in [lo, hi].
func (h *memHead) activeIn(lo, hi int64) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.started && h.minT <= hi && h.maxT >= lo
}

// bytes estimates the head's heap footprint: 8 bytes per element, its slot
// in its event's sequence — the head's only copy of it. Per-event headers
// and chunk slack are left out.
func (h *memHead) bytes() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return int(h.n) * 8
}
