package segstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"histburst"
	"histburst/internal/stream"
)

// A Segment is one immutable time slice of the history: a finished PBE-2
// detector covering [MinT, MaxT], plus the manifest metadata describing it.
// Segments are never mutated after publication — compaction builds a new
// Segment from clones and swaps it in — so queries read them without locks.
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
// as exact curves (a plain element log plus per-event timestamp sequences),
// which is cheap to query exactly and cheap to discard once sealed into a
// sketch. A head freezes exactly once — freeze flips the flag under the
// lock, after which the element log is immutable and the sealer may read it
// without locking.
//
// Per-event timestamps live in chunked slabs: each event's sequence is a
// list of fixed-size chunks carved from head-owned slab allocations, so a
// busy head performs one slab allocation per headSlabSize timestamps instead
// of one grow-and-copy per event per doubling. Closed chunks are always full
// (headChunk entries), which lets the count queries skip straight to the one
// boundary chunk by arithmetic.
type memHead struct {
	mu sync.RWMutex

	// frozen, elems, byEvent, slab/slabOff/seqArena, started, minT, maxT
	// and n are guarded by mu.
	frozen  bool
	started bool
	minT    int64
	maxT    int64
	n       int64
	elems   stream.Stream
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

// popLast removes the most recent timestamp (the freeze tail split walks
// backwards through the log).
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

// sealLimits carries the head-size thresholds append checks against.
type sealLimits struct {
	events int64 // freeze once the head holds this many elements (0 = off)
	span   int64 // freeze once maxT−minT reaches this (0 = off)
}

// append ingests one element. needFreeze is true when the head declined the
// element because it must be frozen first — the head is already frozen, or
// it is full and t advances past maxT (the boundary where sealing keeps
// segment time ranges strictly increasing); the caller freezes and retries
// on the fresh head. A timestamp below the store frontier is rejected.
func (h *memHead) append(e uint64, t int64, lim sealLimits) (needFreeze bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.frozen {
		return true, nil
	}
	if t < h.floor || (h.started && t < h.maxT) {
		frontier := h.floor
		if h.started {
			frontier = h.maxT
		}
		return false, fmt.Errorf("%w: append at %d behind frontier %d", stream.ErrOutOfOrder, t, frontier)
	}
	if h.started && t > h.maxT &&
		((lim.events > 0 && h.n >= lim.events) || (lim.span > 0 && h.maxT-h.minT >= lim.span)) {
		return true, nil
	}
	if !h.started {
		h.minT = t
		h.started = true
	}
	h.maxT = t
	h.n++
	h.elems = append(h.elems, stream.Element{Event: e, Time: t})
	h.appendTS(h.seqFor(e), t)
	return false, nil
}

// appendBatch ingests a batch of elements under a single lock acquisition,
// validating ordering once per element against the running frontier instead
// of paying a lock round-trip each. It stops early when the head must be
// frozen — consumed reports how many leading elements were handled
// (accepted+rejected) so the caller can freeze and retry the remainder on
// the fresh head. With stopOnReject set the first out-of-order element
// aborts the batch with an error (Append/AppendStream semantics); otherwise
// rejects are counted and skipped.
//
//histburst:fastpath append
func (h *memHead) appendBatch(elems stream.Stream, kfold uint64, lim sealLimits, stopOnReject bool) (consumed int, accepted, rejected int64, needFreeze bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, el := range elems {
		if h.frozen {
			return i, accepted, rejected, true, nil
		}
		t := el.Time
		if t < h.floor || (h.started && t < h.maxT) {
			if stopOnReject {
				frontier := h.floor
				if h.started {
					frontier = h.maxT
				}
				return i, accepted, rejected + 1, false,
					fmt.Errorf("%w: append at %d behind frontier %d", stream.ErrOutOfOrder, t, frontier)
			}
			rejected++
			continue
		}
		if h.started && t > h.maxT &&
			((lim.events > 0 && h.n >= lim.events) || (lim.span > 0 && h.maxT-h.minT >= lim.span)) {
			return i, accepted, rejected, true, nil
		}
		if !h.started {
			h.minT = t
			h.started = true
		}
		e := el.Event % kfold
		h.maxT = t
		h.n++
		h.elems = append(h.elems, stream.Element{Event: e, Time: t})
		h.appendTS(h.seqFor(e), t)
		accepted++
	}
	return len(elems), accepted, rejected, false, nil
}

// freeze marks the head immutable. When keepTail is true the elements at
// the final timestamp are split off and returned instead of frozen, so the
// sealed slice ends strictly before the store frontier and the next segment
// merges cleanly (MergeAppend requires strictly increasing boundaries); the
// split is skipped when every element shares one timestamp. The returned
// tail is in append order and owned by the caller.
func (h *memHead) freeze(keepTail bool) (tail stream.Stream) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.frozen {
		return nil
	}
	if keepTail && h.n > 0 && h.minT < h.maxT {
		cut := len(h.elems)
		for cut > 0 && h.elems[cut-1].Time == h.maxT {
			cut--
		}
		tail = append(stream.Stream(nil), h.elems[cut:]...)
		h.elems = h.elems[:cut]
		for _, el := range tail {
			h.byEvent[el.Event].popLast()
		}
		h.n = int64(cut)
		h.maxT = h.elems[cut-1].Time
	}
	h.frozen = true
	return tail
}

// sealedData returns the frozen head's element log and bounds for the
// sealer. The log is returned by reference: a frozen head is immutable, so
// the sealer may iterate it after the lock is released.
func (h *memHead) sealedData() (elems stream.Stream, n, minT, maxT int64) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.elems, h.n, h.minT, h.maxT
}

// appendElems appends a copy of the head's element log to dst — the WAL
// rotation baseline capture, which must copy because a live head keeps
// growing after the lock drops.
func (h *memHead) appendElems(dst stream.Stream) stream.Stream {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return append(dst, h.elems...)
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

// bytes estimates the head's heap footprint: 16 bytes per element in the
// log plus 8 in its event sequence.
func (h *memHead) bytes() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return int(h.n) * 24
}
