package segstore

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"

	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// A memHead is the mutable in-memory head segment: live appends land here
// as exact curves — one timestamp sequence per event, the head's only copy
// of its elements — which is cheap to query exactly and cheap to discard
// once sealed into a sketch. The sealer and the WAL rotation read the head
// back as one time-ordered stream through inOrder, a k-way merge of the
// sequences. A head freezes exactly once — freeze flips the flag under the
// lock, after which its sequences are immutable and the sealer may merge
// them without locking.
//
// Each event's sequence is a list of full chunks of headChunk timestamps,
// packed, plus one open chunk being filled. Both kinds hold a chunk the same
// way: its first timestamp, then the gaps after it at the narrowest byte
// width that holds the largest so far. The open chunk's gaps live in a
// buffer of the event's own that grows with it and is rewritten at a wider
// width when a wider gap arrives; the append that fills it copies its gaps
// into head-owned byte arenas and empties it for reuse. A head's per-event
// gaps are small, so a chunk of either kind costs ~2 bytes a timestamp
// where a raw one would cost 8. Packed chunks are always full, which lets
// the count queries skip straight to the one boundary chunk by arithmetic.
type memHead struct {
	mu sync.RWMutex

	// frozen, started, minT, maxT, n, byEvent, arenas/arenaOff, seqArena,
	// packed, gapBytes and openBytes are guarded by mu.
	frozen  bool
	started bool
	minT    int64
	maxT    int64
	n       int64
	byEvent map[uint64]*eventSeq

	// arenas hold the packed chunks' gaps, carved off the last one at
	// arenaOff.
	arenas   gapArenas
	arenaOff int
	// seqArena batches eventSeq headers the same way, one allocation per
	// seqArenaSize first-seen events.
	seqArena []eventSeq
	// packed counts the packed chunks and gapBytes the gap bytes they hold;
	// openBytes is what the open chunks store, 8 B and their gaps each.
	// bytes() is their sum.
	packed    int
	gapBytes  int
	openBytes int

	// floor is the store's time frontier when this head was created —
	// appends strictly below it are out of order. Immutable after creation.
	floor int64
	// sealID is the segment ID reserved at freeze time; set before the head
	// enters the frozen queue and immutable afterwards.
	sealID uint64
}

const (
	// headChunk is the per-event chunk size: small enough that an open
	// chunk rewidens at most 8 times over at most headChunk−1 gaps, large
	// enough that a packed chunk's 16 B of metadata is half a byte a
	// timestamp.
	headChunk = 32
	// gapArenaSize is the number of gap bytes per arena allocation; at most
	// one packed chunk's worth plus 8, 31·8 + 8 bytes, is left unused at its
	// end.
	gapArenaSize = 8 << 10
	// packedChunkBytes is the size of a packedChunk.
	packedChunkBytes = 16
	// seqArenaSize is the number of eventSeq headers per arena allocation.
	seqArenaSize = 64
)

// A packedChunk is one full chunk of an event's sequence: its first
// timestamp, and the headChunk−1 gaps between consecutive ones, w bytes
// each, little-endian, at off in arena number arena of the head's
// gapArenas. w is the byte width of the largest gap, at most 8; a run of one
// timestamp packs to w = 0 and no gap bytes at all. Gaps are differences
// modulo 2⁶⁴, so a chunk spanning more than MaxInt64 restores exactly.
type packedChunk struct {
	base  int64
	arena uint32
	off   uint16
	w     uint8
}

// gapArenas are a head's gap arenas, gapArenaSize bytes each. Bytes a packed
// chunk was carved from are never written again, so a copy of the list
// taken under the head's lock reads every chunk packed before it without the
// lock. pack leaves at least 8 bytes of arena after every chunk, where word
// loads under the lock may overhang.
type gapArenas [][]byte

// chunk returns c as the decoder reads it.
func (a gapArenas) chunk(c packedChunk) gapChunk {
	return gapChunk{p: a[c.arena][c.off:], base: c.base, n: headChunk, w: int(c.w)}
}

// A gapChunk is one chunk of an event's sequence, packed or open, as the
// decoder reads it: n timestamps, 1 ≤ n ≤ headChunk, the first base and the
// n−1 gaps after it w bytes each, little-endian, at the start of p. p may
// run on past the gaps; under the head's lock, when w > 0, it runs at least
// 8 bytes past the last gap's start.
type gapChunk struct {
	p    []byte
	base int64
	n, w int
}

// gapWidth is the byte width of gap g.
func gapWidth(g uint64) int { return (bits.Len64(g) + 7) / 8 }

// gapMask keeps the low w bytes of a word.
func gapMask(w int) uint64 { return ^uint64(0) >> (64 - 8*uint(w)) }

// countTo returns how many of c's timestamps are ≤ t, t ≥ c.base: the base,
// then the gaps summed until they pass t, one masked word load each. The
// loads may overhang the gaps, so the caller holds the head's lock.
//
//histburst:noalloc
func (c gapChunk) countTo(t int64) int {
	if c.w == 0 { // no gap bytes to load: every timestamp is the base
		return c.n
	}
	p, n, w := c.p, c.n, c.w
	d, mask := uint64(t)-uint64(c.base), gapMask(w)
	sum := uint64(0)
	for i, off := 1, 0; i < n; i, off = i+1, off+w {
		if sum += binary.LittleEndian.Uint64(p[off:off+8]) & mask; sum > d {
			return i
		}
	}
	return n
}

// unpack writes c's timestamps to dst[:c.n]. It reads no byte past the
// gaps — inOrder unpacks packed chunks without the lock, beside an append
// that may be packing the next one — so the last gaps, whose word would
// overhang, are read byte by byte.
func (c gapChunk) unpack(dst []int64) {
	dst = dst[:c.n]
	w := c.w
	p, mask := c.p[:(c.n-1)*w], gapMask(w)
	t := c.base
	dst[0] = t
	i := 0
	for ; i*w+8 <= len(p); i++ {
		t += int64(binary.LittleEndian.Uint64(p[i*w:]) & mask)
		dst[1+i] = t
	}
	for ; i < c.n-1; i++ {
		g := uint64(0)
		for j := w - 1; j >= 0; j-- {
			g = g<<8 | uint64(p[i*w+j])
		}
		t += int64(g)
		dst[1+i] = t
	}
}

// eventSeq is one event's timestamp sequence inside the head: zero or more
// full packed chunks plus the open chunk being filled, never full — its
// first timestamp base, its last tail, and its gaps at width w in open,
// which grows with the event and is kept for reuse when the chunk packs.
// Timestamps are appended in non-decreasing order, so every chunk is sorted
// and chunk time ranges ascend.
type eventSeq struct {
	chunks []packedChunk
	open   []byte
	base   int64
	tail   int64
	n      int64
	w      uint8
}

// openLen is the number of timestamps in q's open chunk.
func (q *eventSeq) openLen() int { return int(q.n) - len(q.chunks)*headChunk }

// openChunk returns q's open chunk, which must be non-empty, as the decoder
// reads it. Its p runs to the buffer's capacity, at least 8 bytes past the
// last gap's start.
func (q *eventSeq) openChunk() gapChunk {
	return gapChunk{p: q.open[:cap(q.open)], base: q.base, n: q.openLen(), w: int(q.w)}
}

// countAtOrBefore returns how many timestamps are ≤ t. The open chunk
// starts at or after every packed timestamp, so a t at or past its base
// counts every packed chunk whole and scans the open chunk alone. Otherwise
// a binary search over the packed chunks' bases finds the boundary chunk
// (the chunks before it end at or before its base and are full, so they
// contribute len·headChunk by arithmetic), and a scan inside it counts the
// rest.
//
//histburst:noalloc
func (q *eventSeq) countAtOrBefore(a gapArenas, t int64) int64 {
	if q == nil || q.n == 0 {
		return 0
	}
	var cnt int
	var c gapChunk
	if k := q.openLen(); k > 0 && t >= q.base {
		if t >= q.tail {
			return q.n
		}
		cnt, c = len(q.chunks)*headChunk, q.openChunk()
	} else {
		lo, hi := 0, len(q.chunks)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.chunks[mid].base <= t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			return 0
		}
		cnt, c = (lo-1)*headChunk, a.chunk(q.chunks[lo-1])
	}
	return int64(cnt + c.countTo(t))
}

// countIn returns how many timestamps land in [lo, hi].
func (q *eventSeq) countIn(a gapArenas, lo, hi int64) int64 {
	if q == nil || q.n == 0 || hi < lo {
		return 0
	}
	n := q.countAtOrBefore(a, hi)
	if lo > math.MinInt64 {
		n -= q.countAtOrBefore(a, lo-1)
	}
	return n
}

// last returns the most recent timestamp; q must be non-empty.
func (q *eventSeq) last(a gapArenas) int64 {
	if q.openLen() > 0 {
		return q.tail
	}
	var c [headChunk]int64
	a.chunk(q.chunks[len(q.chunks)-1]).unpack(c[:])
	return c[headChunk-1]
}

// materialize returns the sequence as one contiguous sorted slice.
func (q *eventSeq) materialize(a gapArenas) stream.TimestampSeq {
	if q == nil || q.n == 0 {
		return nil
	}
	out := make(stream.TimestampSeq, q.n)
	for i, c := range q.chunks {
		a.chunk(c).unpack(out[i*headChunk:])
	}
	if q.openLen() > 0 {
		q.openChunk().unpack(out[len(q.chunks)*headChunk:])
	}
	return out
}

// putGap appends gap g to q's open gaps at width q.w, growing the buffer
// first so the word store — spilling into the next gap's bytes, rewritten
// by the next store — and every word load stay inside it. The buffer
// doubles, but never past what a full chunk at the current width takes.
func (q *eventSeq) putGap(g uint64) {
	off, w := len(q.open), int(q.w)
	if off+8 > cap(q.open) {
		buf := make([]byte, off, min(max(off+8, 2*cap(q.open)), (headChunk-2)*w+8))
		copy(buf, q.open)
		q.open = buf
	}
	binary.LittleEndian.PutUint64(q.open[off:off+8], g)
	q.open = q.open[:off+w]
}

// appendTS appends one timestamp to q: the base of a fresh open chunk, or a
// gap after its tail — rewriting the open gaps at a wider width first when
// this one is wider than every gap before it — and packs the open chunk when
// it fills.
func (h *memHead) appendTS(q *eventSeq, t int64) {
	k := q.openLen()
	q.n++
	if k == 0 {
		q.base, q.tail, q.w, q.open = t, t, 0, q.open[:0]
		h.openBytes += 8
		return
	}
	g := uint64(t) - uint64(q.tail)
	q.tail = t
	if w := gapWidth(g); w > int(q.w) {
		var gaps [headChunk - 1]uint64 // all zero at width 0
		if old := q.openChunk(); old.w > 0 {
			for i := range k - 1 {
				gaps[i] = binary.LittleEndian.Uint64(old.p[i*old.w:]) & gapMask(old.w)
			}
		}
		h.openBytes += (k - 1) * (w - int(q.w))
		q.w, q.open = uint8(w), q.open[:0]
		for _, g := range gaps[:k-1] {
			q.putGap(g)
		}
	}
	if q.w > 0 {
		q.putGap(g)
		h.openBytes += int(q.w)
	}
	if k+1 == headChunk {
		h.pack(q)
	}
}

// pack copies q's full open chunk into a packed chunk and empties it for
// reuse: the gaps are already at the width the packed chunk takes.
func (h *memHead) pack(q *eventSeq) {
	w := int(q.w)
	size := (headChunk - 1) * w
	if len(h.arenas) == 0 || h.arenaOff+size+8 > gapArenaSize {
		h.arenas = append(h.arenas, make([]byte, gapArenaSize))
		h.arenaOff = 0
	}
	copy(h.arenas[len(h.arenas)-1][h.arenaOff:], q.open[:size])
	q.chunks = append(q.chunks, packedChunk{base: q.base, arena: uint32(len(h.arenas) - 1), off: uint16(h.arenaOff), w: uint8(w)})
	q.open = q.open[:0]
	h.arenaOff += size
	h.packed++
	h.gapBytes += size
	h.openBytes -= 8 + size
}

// popLast removes q's most recent timestamp (the freeze tail split): the
// last chunk — the open one, or the last packed one when the open chunk is
// empty — is decoded, dropped, and its other timestamps appended again as
// the open chunk, at the width they call for.
func (h *memHead) popLast(q *eventSeq) {
	var ts [headChunk]int64
	k := q.openLen()
	if k > 0 {
		q.openChunk().unpack(ts[:])
		h.openBytes -= 8 + (k-1)*int(q.w)
	} else {
		c := q.chunks[len(q.chunks)-1]
		h.arenas.chunk(c).unpack(ts[:])
		q.chunks = q.chunks[:len(q.chunks)-1]
		h.packed--
		h.gapBytes -= (headChunk - 1) * int(c.w)
		k = headChunk
	}
	q.n -= int64(k)
	for _, t := range ts[:k-1] {
		h.appendTS(q, t)
	}
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

// appendBatch ingests a batch of elements under a single lock acquisition,
// validating ordering once per element against the running frontier
// (rejects are counted and skipped). It stops early when the head must be
// frozen first — the head is already frozen, or it holds sealEvents
// elements (0 = no limit) and the next timestamp advances past maxT (the
// boundary where sealing keeps segment time ranges strictly increasing);
// consumed reports how many leading elements were handled
// (accepted+rejected) so the caller can freeze and retry the remainder on
// the fresh head.
//
//histburst:fastpath append
func (h *memHead) appendBatch(elems stream.Stream, kfold uint64, sealEvents int64) (consumed int, accepted, rejected int64, needFreeze bool) {
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
		if h.started && t > h.maxT && sealEvents > 0 && h.n >= sealEvents {
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
// merges cleanly (a summary cell refuses a timestamp counted on both sides
// of a boundary); the split is skipped when every element shares one
// timestamp. The tail is
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
			for q.n > 0 && q.last(h.arenas) == h.maxT {
				h.popLast(q)
				tail = append(tail, stream.Element{Event: e, Time: h.maxT})
			}
			if q.n > 0 {
				maxT = max(maxT, q.last(h.arenas))
			}
		}
		h.n -= int64(len(tail))
		h.maxT = maxT
	}
	h.frozen = true
	return tail
}

// seqCursor is inOrder's read position in one event's sequence: cur is the
// chunk being read and pos the next unread index in it — pos < len(cur)
// while the cursor is live — and chunks, then open, what follows it. Packed
// chunks are decoded one at a time into buf. Advancing moves an index, not
// a slice, so the merge loop stores no pointers.
type seqCursor struct {
	cur    []int64
	pos    int
	buf    *[headChunk]int64
	chunks []packedChunk
	open   []int64
}

// refill moves c on to its next chunk, reporting false when none is left.
// Packed chunks are full; only the open one can be empty.
func (c *seqCursor) refill(a gapArenas) bool {
	if len(c.chunks) > 0 {
		a.chunk(c.chunks[0]).unpack(c.buf[:])
		c.cur, c.pos, c.chunks = c.buf[:], 0, c.chunks[1:]
		return true
	}
	c.cur, c.pos, c.open = c.open, 0, nil
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
// merged after it drops, so fn runs unlocked. The packed chunks and the
// arenas are captured as they are: an append only packs past a captured
// length, into arena bytes nobody has read. The open chunks are decoded
// into a copy, because an append rewrites an open buffer in place — at a
// wider width, or from the start once it packs.
//
// The merge is a loser tree: node p of an implicit tree over the k cursors
// (leaf i at k+i, parent p/2) holds the key that lost the match played
// there, so after the winner advances one pass up its path — lg k
// comparisons against keys held in the nodes themselves — finds the next.
// Only a tie on t reads the event ids. No sort and no materialized stream:
// the elements go from one decoded chunk per cursor straight to fn.
func (h *memHead) inOrder(fn func(e uint64, t int64)) {
	h.mu.RLock()
	arenas := h.arenas
	open, packed := 0, 0
	for _, q := range h.byEvent {
		open += q.openLen()
		if len(q.chunks) > 0 {
			packed++
		}
	}
	opens := make([]int64, open)
	bufs := make([][headChunk]int64, packed)
	ids := make([]uint64, 0, len(h.byEvent))
	cursors := make([]seqCursor, 0, len(h.byEvent))
	for e, q := range h.byEvent {
		c := seqCursor{chunks: q.chunks}
		if len(q.chunks) > 0 {
			c.buf, bufs = &bufs[0], bufs[1:]
		}
		if k := q.openLen(); k > 0 {
			c.open, opens = opens[:k], opens[k:]
			q.openChunk().unpack(c.open)
		}
		if c.refill(arenas) {
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
		if c.pos++; c.pos < len(c.cur) || c.refill(arenas) {
			w.t = c.cur[c.pos]
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
//
//histburst:noalloc
func (h *memHead) countAtOrBefore(e uint64, t int64) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return float64(h.byEvent[e].countAtOrBefore(h.arenas, t))
}

// burstiness returns the head's exact contribution to b_e(t) over span sp:
// cumulative frequencies of time-disjoint slices add, so equation (2)
// distributes over the slices term by term.
//
//histburst:noalloc
func (h *memHead) burstiness(e uint64, t int64, sp pbe.Span) float64 {
	t0, t1, t2 := sp.Instants(t)
	h.mu.RLock()
	defer h.mu.RUnlock()
	ts, a := h.byEvent[e], h.arenas
	return float64(ts.countAtOrBefore(a, t2) - 2*ts.countAtOrBefore(a, t1) + ts.countAtOrBefore(a, t0))
}

// arrivals returns a copy of e's timestamps in the head.
func (h *memHead) arrivals(e uint64) stream.TimestampSeq {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.byEvent[e].materialize(h.arenas)
}

// eventsInWindow returns the ids with at least one arrival in [lo, hi] —
// those whose exact burstiness the head adds to the bursty-event searches.
func (h *memHead) eventsInWindow(lo, hi int64) []uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if !h.started || h.minT > hi || h.maxT < lo {
		return nil
	}
	var out []uint64
	for e, ts := range h.byEvent {
		if ts.countIn(h.arenas, lo, hi) > 0 {
			out = append(out, e)
		}
	}
	return out
}

// bytes is what the head stores for its elements, the only copy of them:
// per packed chunk its 16 B of metadata (its first timestamp among them)
// and 31 gaps at its width, plus per open chunk of n timestamps its 8 B
// first one and n−1 gaps at its width. Per-event headers and map entries,
// the open buffers' spare capacity and the arenas' uncarved tails are left
// out.
func (h *memHead) bytes() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.packed*packedChunkBytes + h.gapBytes + h.openBytes
}
