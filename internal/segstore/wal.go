package segstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"histburst"
	"histburst/internal/atomicfile"
	"histburst/internal/binenc"
	"histburst/internal/stream"
)

// The write-ahead log closes the store's durability hole between
// checkpoints: every accepted append is framed into an append-only log file
// and (under the default policy) fsynced before the caller is acked, so a
// crash loses nothing that was acknowledged. The log is write-AHEAD in the
// strict sense — the record is durable before the head applies it — which
// makes a failed append trivially retryable: nothing was applied, and the
// torn bytes are truncated away before the next record is written.
//
// Replay is positional, not heuristic. Every record carries startN, the
// global position (count of accepted elements since the store's birth) of
// its first element. At open, the durable position is Σ Elements over every
// manifest-referenced segment — live and quarantined — and replay applies
// exactly the suffix of logged elements at positions ≥ that watermark.
// Records wholly below the watermark are skipped, a record straddling it is
// applied from the watermark on, and a record starting past the expected
// position is a gap: replay stops there, a clean truncation. Because seal
// rotation rewrites the log as a baseline restating every unsealed element,
// overlapping old and new log files replay to the same state.
//
// Torn tails are tolerated by construction: frames are length-prefixed and
// CRC32-C-checked, and the first bad frame ends the parse. Commits are
// serialized (one writer holds Store.ingestMu through admission, frame
// write, fsync, and head apply), so a torn frame can only be the newest
// record — exactly the one that was never acked under WALSyncAlways.

// WALSyncPolicy selects when the write-ahead log fsyncs.
type WALSyncPolicy int

const (
	// WALSyncAlways fsyncs every record before the append is acknowledged:
	// an acked append survives both process crash and power loss.
	WALSyncAlways WALSyncPolicy = iota
	// WALSyncInterval acks after the (buffered) write and fsyncs on a
	// background cadence: a group commit amortizes the fsync, an acked
	// append survives process crash, and at most one interval's worth of
	// acks is exposed to power loss.
	WALSyncInterval
	// WALSyncOff never fsyncs: acked appends survive process crash (the
	// page cache outlives the process) but not power loss.
	WALSyncOff
)

func (p WALSyncPolicy) String() string {
	switch p {
	case WALSyncAlways:
		return "always"
	case WALSyncInterval:
		return "interval"
	case WALSyncOff:
		return "off"
	}
	return fmt.Sprintf("WALSyncPolicy(%d)", int(p))
}

// ParseWALSyncPolicy parses the -wal-sync flag spelling of a policy.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) {
	switch s {
	case "always":
		return WALSyncAlways, nil
	case "interval":
		return WALSyncInterval, nil
	case "off":
		return WALSyncOff, nil
	}
	return 0, fmt.Errorf("segstore: unknown WAL sync policy %q (want always, interval, or off)", s)
}

// DefaultWALSyncEvery is the background fsync cadence for WALSyncInterval.
const DefaultWALSyncEvery = 100 * time.Millisecond

const (
	walFilePrefix = "wal-"
	walFileSuffix = ".hbw"
	// walFrameHeader is the per-frame overhead: u32 payload length, u32
	// CRC32-C of the payload.
	walFrameHeader = 8
	// maxWALRecordBytes bounds one frame's payload; a length prefix beyond
	// it is certainly corrupt (or a torn length field), so the parse stops.
	maxWALRecordBytes = 1 << 28
	// walOrderBits is the width of each code order in an HBW2 record.
	walOrderBits = 6
)

// maxWALRecordElems bounds one HBW2 record's element count. An element
// takes at most 132 bits at the orders the writer picks (66 for its id and
// 66 for its gap, the cost of order 63), so a record of this many stays
// under maxWALRecordBytes; the writer splits a longer run into several
// records. It is a variable so tests can drive the split with a small bound.
var maxWALRecordElems = 1 << 23

// walMagic identifies the WAL file format the store reads and writes,
// HBW2: records whose elements are bit-coded. hbw1Magic marks the
// generation before it, whose records held element runs; Open refuses a
// directory holding one (see openWAL).
var (
	walMagic  = []byte{'H', 'B', 'W', '2'}
	hbw1Magic = []byte{'H', 'B', 'W', '1'}
)

// unsupportedWALError refuses a log of another format generation. It matches
// histburst.ErrUnsupportedFormat: like a detector file of another
// generation, such a log is whole and may hold acked elements no segment
// holds, so Open must neither read it as debris nor rotate it away.
type unsupportedWALError string

func (e unsupportedWALError) Error() string {
	return fmt.Sprintf("unsupported write-ahead log format %s (this build reads HBW2 only)", string(e))
}

func (unsupportedWALError) Is(target error) bool { return target == histburst.ErrUnsupportedFormat }

func walFileName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", walFilePrefix, seq, walFileSuffix)
}

// walRecord is one decoded log record: the accepted elements of one commit,
// starting at global element position startN.
type walRecord struct {
	startN int64
	elems  stream.Stream
}

// An HBW2 record payload is a byte header — uvarint startN, uvarint count
// and, when count > 0, the first element's time as a zigzag varint — and
// then a bit stream, most significant bit first: the id code's order k_id
// and the gap code's order k_dt in 6 bits each, then per element its time
// gap from the previous element (none for the first) and its event id, and
// zero bits up to the byte boundary. Ids and gaps are Exp-Golomb coded at
// their orders, which the writer picks per record at the least exact cost.
// Records hold admitted sets, so times never decrease and a gap is
// unsigned; the code covers all of uint64, so any id and any gap between
// two int64 times round-trips.

// encodeWALRecord frames elems, whose times must not decrease, as HBW2
// records from global position startN: one record, or several of at most
// maxWALRecordElems elements each.
func encodeWALRecord(startN int64, elems stream.Stream) []byte {
	var frames []byte
	for {
		n := min(len(elems), maxWALRecordElems)
		frames = appendWALRecord(frames, startN, elems[:n])
		startN += int64(n)
		if elems = elems[n:]; len(elems) == 0 {
			return frames
		}
	}
}

// walFrames is how many records encodeWALRecord writes for n elements.
func walFrames(n int) int64 {
	return int64(max(1, (n+maxWALRecordElems-1)/maxWALRecordElems))
}

// appendWALRecord appends one framed HBW2 record to dst.
func appendWALRecord(dst []byte, startN int64, elems stream.Stream) []byte {
	var kID, kDT uint
	size := walFrameHeader + 2*binary.MaxVarintLen64
	if len(elems) > 0 {
		var ids, gaps egCost
		prev := elems[0].Time
		for _, el := range elems {
			if el.Time < prev {
				panic(fmt.Sprintf("segstore: wal record times decrease (%d after %d)", el.Time, prev))
			}
			ids.add(el.Event)
			gaps.add(uint64(el.Time - prev))
			prev = el.Time
		}
		gaps.n-- // the first element has no gap; its zero was tallied
		gaps.lens[0]--
		var idBits, gapBits int
		kID, idBits = ids.best()
		kDT, gapBits = gaps.best()
		size += binary.MaxVarintLen64 + (2*walOrderBits+idBits+gapBits+7)/8
	}
	dst = slices.Grow(dst, size)
	at := len(dst)
	dst = append(dst, make([]byte, walFrameHeader)...)
	dst = binary.AppendUvarint(dst, uint64(startN))
	dst = binary.AppendUvarint(dst, uint64(len(elems)))
	if len(elems) > 0 {
		dst = binary.AppendVarint(dst, elems[0].Time)
		w := bitWriter{buf: dst}
		w.write(uint64(kID), walOrderBits)
		w.write(uint64(kDT), walOrderBits)
		w.expGolomb(elems[0].Event, kID)
		for i := 1; i < len(elems); i++ {
			gap, id := uint64(elems[i].Time-elems[i-1].Time), elems[i].Event
			// Most elements' two codes fit one write together.
			g, gw := shortEG(gap, kDT)
			e, ew := shortEG(id, kID)
			if gw <= 32 && ew <= 32-gw {
				w.write(g<<ew|e, gw+ew)
				continue
			}
			w.expGolomb(gap, kDT)
			w.expGolomb(id, kID)
		}
		dst = w.flush()
	}
	body := dst[at+walFrameHeader:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.Checksum(body, crcTable))
	return dst
}

// decodeWALRecord parses one HBW2 frame payload (already CRC-verified).
// Corrupt input of any shape yields an error, never a panic: it refuses
// overlong varints, a count the bits left cannot hold at the record's own
// minimum element size (checked before anything is allocated), a code
// longer than 64 bits, a gap that carries time past MaxInt64, and nonzero
// padding or trailing bytes.
//
//histburst:decoder
func decodeWALRecord(payload []byte) (walRecord, error) {
	dec := binenc.NewReader(payload)
	startN := dec.Uvarint()
	count := dec.Len(uint64(maxWALRecordElems))
	t := int64(0)
	if count > 0 {
		t = dec.Varint()
	}
	if err := dec.Err(); err != nil {
		return walRecord{}, fmt.Errorf("segstore: wal record: %w", err)
	}
	if dec.Overlong() {
		return walRecord{}, fmt.Errorf("segstore: wal record: overlong varint in the header")
	}
	if int64(startN) < 0 {
		return walRecord{}, fmt.Errorf("segstore: wal record: implausible start position %d", startN)
	}
	rec := walRecord{startN: int64(startN)}
	if count == 0 {
		if dec.Remaining() != 0 {
			return walRecord{}, fmt.Errorf("segstore: wal record: %d trailing bytes", dec.Remaining())
		}
		return rec, nil
	}
	r := bitReader{buf: payload[len(payload)-dec.Remaining():]}
	kID, kDT := uint(r.read(walOrderBits)), uint(r.read(walOrderBits))
	if need := walMinBits(count, kID, kDT); r.err != nil || need > r.left() {
		return walRecord{}, fmt.Errorf("segstore: wal record: %d elements at orders %d/%d need %d bits, %d left", count, kID, kDT, need, r.left())
	}
	rec.elems = make(stream.Stream, count) //histburst:allow decodersafety -- count is bounded by the bits left just above
	rec.elems[0] = stream.Element{Event: r.expGolomb(kID), Time: t}
	for i := 1; i < count; i++ {
		gap := r.expGolomb(kDT)
		if gap > uint64(math.MaxInt64)-uint64(t) {
			return walRecord{}, fmt.Errorf("segstore: wal record: element %d's gap %d carries time past MaxInt64", i, gap)
		}
		t += int64(gap)
		rec.elems[i] = stream.Element{Event: r.expGolomb(kID), Time: t}
	}
	if err := r.close(); err != nil {
		return walRecord{}, fmt.Errorf("segstore: wal record: %w", err)
	}
	return rec, nil
}

// walMinBits is the fewest bits count elements take at orders kID and kDT:
// 1 + kID for the first element's id, 2 + kID + kDT for each later one.
func walMinBits(count int, kID, kDT uint) uint64 {
	return uint64(count-1)*uint64(2+kID+kDT) + uint64(1+kID)
}

// egCost tallies a set of values so the exact Exp-Golomb cost of the set at
// every order is known without a pass per order. At order k a value v takes
// 2m + 1 + k bits, where m is the bit length of (v >> k) + 1 less one: that
// is L − k − 1 for a value of bit length L > k, one more where the top L − k
// bits of v are all ones and the + 1 carries, and 0 for L ≤ k. The counts
// are int32 (a record holds at most maxWALRecordElems values) to keep the
// commit path's stack frame small.
type egCost struct {
	n    int32
	lens [65]int32 // values by bit length L
	// carries counts values by the lowest order L − j at which they carry,
	// j being how many of their top bits are ones; they carry up to L − 1.
	carries [65]int32
}

func (c *egCost) add(v uint64) {
	l := bits.Len64(v)
	c.n++
	c.lens[l]++
	if l > 0 {
		c.carries[l-bits.LeadingZeros64(^(v<<(64-l)))]++
	}
}

// best returns the order in [0, 63] at which the tallied values take the
// fewest bits (the lowest such order on a tie), and those bits.
func (c *egCost) best() (k uint, cost int) {
	// Past the longest value's bit length an order only adds a bit a value.
	top := len(c.lens) - 1
	for top > 0 && c.lens[top] == 0 {
		top--
	}
	// From the top order down: above counts the values with L > j, tail
	// sums their L, and carry counts those that carry at j — values with
	// L > j, less those whose carry starts above j.
	above, tail, late := 0, 0, 0
	cost = -1
	for j := min(top, 63); j >= 0; j-- {
		above += int(c.lens[j+1])
		tail += (j + 1) * int(c.lens[j+1])
		late += int(c.carries[j+1])
		carry := above - late
		if b := int(c.n)*(1+j) + 2*(tail-(j+1)*above+carry); cost < 0 || b <= cost {
			k, cost = uint(j), b
		}
	}
	return k, cost
}

// bitWriter appends bits to a byte slice, most significant first.
type bitWriter struct {
	buf []byte
	acc uint64 // the n pending bits, in its low end
	n   uint   // fewer than 32 between calls
}

// write appends the low n bits of v; n ≤ 32.
func (w *bitWriter) write(v uint64, n uint) {
	w.acc = w.acc<<n | v&(1<<n-1)
	w.n += n
	if w.n >= 32 {
		w.n -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>w.n))
	}
}

// writeLong appends the low n bits of v; n ≤ 64.
func (w *bitWriter) writeLong(v uint64, n uint) {
	if n > 32 {
		w.write(v>>32, n-32)
		n = 32
	}
	w.write(v, n)
}

// expGolomb appends v in the Exp-Golomb code of order k: with x = (v >> k)
// + 1 of m + 1 bits, m zero bits, then x, then the low k bits of v.
func (w *bitWriter) expGolomb(v uint64, k uint) {
	if code, width := shortEG(v, k); width <= 32 {
		w.write(code, width)
		return
	}
	x := v>>k + 1
	if x == 0 { // k = 0 and v = 2⁶⁴ − 1: x is 2⁶⁴, a one and 64 zeros
		w.writeLong(0, 64)
		w.write(1, 1)
		w.writeLong(0, 64)
		return
	}
	m := uint(bits.Len64(x)) - 1
	w.writeLong(0, m)
	w.writeLong(x, m+1)
	w.writeLong(v, k)
}

// shortEG returns v's Exp-Golomb code of order k as the low width bits of
// code — x and the low k bits together read v + 2ᵏ — where width ≤ 32; a
// longer code has a width past 32 and its code is not meaningful.
func shortEG(v uint64, k uint) (code uint64, width uint) {
	return v + 1<<k, 2*uint(bits.Len64(v>>k+1)) - 1 + k
}

// flush pads the last byte with zero bits and returns the buffer.
func (w *bitWriter) flush() []byte {
	for ; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc>>(w.n-8)))
	}
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
	}
	w.acc, w.n = 0, 0
	return w.buf
}

// bitReader reads what bitWriter wrote. Its error is the first failure's;
// what is read after it is meaningless, and close reports it.
type bitReader struct {
	buf []byte
	off int    // the next byte to load
	acc uint64 // the n loaded bits, the next one highest, zeros below
	n   uint
	err error
}

func (r *bitReader) refill() {
	for r.n <= 56 && r.off < len(r.buf) {
		r.acc |= uint64(r.buf[r.off]) << (56 - r.n)
		r.off++
		r.n += 8
	}
}

// left is how many bits are unread.
func (r *bitReader) left() uint64 {
	return uint64(r.n) + 8*uint64(len(r.buf)-r.off)
}

// read returns the next n bits; n ≤ 64.
func (r *bitReader) read(n uint) uint64 {
	if n > 56 {
		hi := r.read(n - 32)
		return hi<<32 | r.read(32)
	}
	if r.n < n {
		r.refill()
		if r.n < n {
			r.fail("truncated bit stream")
			return 0
		}
	}
	v := r.acc >> (64 - n) // 0 for n = 0: Go's shifts by 64 clear
	r.acc <<= n
	r.n -= n
	return v
}

// expGolomb reads one value in the Exp-Golomb code of order k, refusing a
// code whose value would not fit in 64 bits.
func (r *bitReader) expGolomb(k uint) uint64 {
	if r.n < 57 {
		r.refill()
	}
	// The common case: the whole code, 2z + 1 + k bits, is loaded. Its last
	// z + 1 + k bits are x and v's low k bits, which read as v + 2ᵏ.
	if z := uint(bits.LeadingZeros64(r.acc)); 2*z+1+k <= r.n {
		v := r.acc << z >> (63 - z - k)
		r.acc <<= 2*z + 1 + k
		r.n -= 2*z + 1 + k
		return v - 1<<k
	}
	m := uint(0)
	for {
		if r.n == 0 {
			r.refill()
			if r.n == 0 {
				r.fail("truncated bit stream")
				return 0
			}
		}
		z := min(uint(bits.LeadingZeros64(r.acc)), r.n)
		m += z
		r.acc <<= z
		r.n -= z
		if m > 64-k {
			r.fail("code longer than 64 bits")
			return 0
		}
		if r.n > 0 {
			break
		}
	}
	r.acc <<= 1 // x's leading one
	r.n--
	low := r.read(m)
	if m == 64-k && low != 0 {
		r.fail("code longer than 64 bits")
		return 0
	}
	q := uint64(1)<<m - 1 + low // x − 1; at m = 64 the shift is 0 and low is 0
	return q<<k | r.read(k)
}

// close refuses what is left after the last element: a nonzero padding bit,
// or a whole byte.
func (r *bitReader) close() error {
	if r.err != nil {
		return r.err
	}
	if r.left() >= 8 {
		return fmt.Errorf("%w: %d trailing bits", binenc.ErrCorrupt, r.left())
	}
	if r.acc != 0 {
		return fmt.Errorf("%w: nonzero padding bits", binenc.ErrCorrupt)
	}
	return nil
}

func (r *bitReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", binenc.ErrCorrupt, what)
	}
}

// parseWALFile parses one log file's bytes into its record sequence,
// applying the torn-tail rule: the parse ends at the first frame that is
// truncated, oversized, CRC-mismatched, undecodable, or whose times
// decrease, and every record before it stands. clean reports whether the
// file ended exactly at a frame boundary with a valid magic (false means
// trailing bytes were dropped).
func parseWALFile(data []byte) (recs []walRecord, clean bool) {
	if !bytes.HasPrefix(data, walMagic) {
		// A file torn inside the 4-byte magic (crash during rotation) holds
		// no records by definition; anything else with a bad magic is not a
		// log we can trust any frame of.
		return nil, len(data) == 0
	}
	off := len(walMagic)
	for {
		if off == len(data) {
			return recs, true
		}
		if off+walFrameHeader > len(data) {
			return recs, false
		}
		ln := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if uint64(ln) > maxWALRecordBytes || off+walFrameHeader+int(ln) > len(data) {
			return recs, false
		}
		body := data[off+walFrameHeader : off+walFrameHeader+int(ln)]
		if crc32.Checksum(body, crcTable) != sum {
			return recs, false
		}
		// Records hold admitted sets; one out of time order came from no
		// writer.
		rec, err := decodeWALRecord(body)
		if err != nil || !slices.IsSortedFunc(rec.elems, func(a, b stream.Element) int { return cmp.Compare(a.Time, b.Time) }) {
			return recs, false
		}
		recs = append(recs, rec)
		off += walFrameHeader + int(ln)
	}
}

// wal is the store's write-ahead log. mu is the log's own lock, held across
// one frame append, one sync or one rotation. The store's write path
// (Store.ingestMu) serializes commits around it, so record order on disk is
// commit order, and a torn frame can only be the newest.
type wal struct {
	dir    string
	policy WALSyncPolicy
	every  time.Duration

	mu sync.Mutex
	// f, seq, nextN, goodOff, dirtyTail, records, unsyncedRecords,
	// unsyncedBytes, syncErr and closed are guarded by mu.
	f   *os.File
	seq uint64
	// nextN is the global element position the next record starts at.
	nextN int64
	// goodOff is the file offset just past the last fully committed frame;
	// a failed write or sync marks the tail dirty, and the tail is
	// truncated back to goodOff before the next frame is written so a
	// retried append can never bury an acked record behind a torn one.
	goodOff   int64
	dirtyTail bool
	records   int64
	// unsyncedRecords/unsyncedBytes count acked-but-not-yet-fsynced frames
	// (the WAL lag surfaced by /healthz); always zero under WALSyncAlways.
	unsyncedRecords int64
	unsyncedBytes   int64
	syncErr         error
	closed          bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// openWAL scans dir for log files and returns the wal handle plus the
// replay suffix: every logged position ≥ durableN, in position order, each
// as the newest record covering it wrote it. An HBW1 log refuses the whole
// scan. The returned wal has no live file yet — the store applies the
// replay and then rotates, which starts a fresh log and deletes the old
// files.
func openWAL(dir string, policy WALSyncPolicy, every time.Duration, durableN int64) (*wal, stream.Stream, error) {
	if every <= 0 {
		every = DefaultWALSyncEvery
	}
	w := &wal{dir: dir, policy: policy, every: every, stop: make(chan struct{})}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, walFilePrefix) && strings.HasSuffix(name, walFileSuffix) {
			names = append(names, name)
		}
	}
	// Zero-padded sequence numbers: lexical order is rotation order.
	sort.Strings(names)

	expect := durableN
	var replay stream.Stream
scan:
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, fmt.Errorf("segstore: wal: %w", err)
		}
		if bytes.HasPrefix(data, hbw1Magic) {
			return nil, nil, fmt.Errorf("segstore: %s: %w", name, unsupportedWALError(hbw1Magic))
		}
		recs, _ := parseWALFile(data)
		for _, rec := range recs {
			end := rec.startN + int64(len(rec.elems))
			if rec.startN > expect {
				// A positional gap means the records bridging it were lost
				// (corruption ate an earlier frame). Everything from the gap
				// on is unanchored; stop at the clean prefix.
				break scan
			}
			if end <= durableN {
				continue // wholly below the watermark: already sealed
			}
			// A record restates every position it covers, and the later
			// copy wins: a rotation baseline repeats what an older file may
			// already have replayed, with a head's equal-timestamp elements
			// in event-id order rather than arrival order, so stitching an
			// older file's torn prefix to the baseline's rest by position
			// would swap ids inside such a run.
			from := max(rec.startN, durableN)
			src := rec.elems[from-rec.startN:]
			n := copy(replay[from-durableN:], src)
			replay = append(replay, src[n:]...)
			expect = max(expect, end)
		}
		if seq := walFileSeq(name); seq > w.seq {
			w.seq = seq
		}
	}
	w.nextN = expect
	return w, replay, nil
}

// walFileSeq extracts the rotation sequence number from a log file name
// (0 for a malformed one, which only weakens the "newest" pick).
func walFileSeq(name string) uint64 {
	var seq uint64
	fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, walFilePrefix), walFileSuffix), "%d", &seq) //histburst:allow errdrop -- malformed foreign file names parse as seq 0, which is safe
	return seq
}

// start launches the background fsync loop for WALSyncInterval.
//
//histburst:worker stop
func (w *wal) start() {
	if w.policy != WALSyncInterval {
		return
	}
	w.wg.Add(1)
	go w.syncLoop()
}

func (w *wal) syncLoop() {
	defer w.wg.Done()
	tick := time.NewTicker(w.every)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.Sync() //histburst:allow errdrop -- the failure is recorded in syncErr and surfaced through Health; the cadence retries it
		}
	}
}

// appendLocked frames elems at the current position and commits it under
// the configured sync policy. On any failure nothing is acked, the tail is
// marked dirty, and the position does not advance — the caller may retry.
//
//histburst:locked mu
//histburst:durable-ack Sync
func (w *wal) appendLocked(elems stream.Stream) error {
	if w.closed {
		return ErrClosed
	}
	if w.f == nil {
		return fmt.Errorf("segstore: wal has no live file")
	}
	if w.dirtyTail {
		if err := w.repairTailLocked(); err != nil {
			return fmt.Errorf("segstore: wal tail repair: %w", err)
		}
	}
	frame := encodeWALRecord(w.nextN, elems)
	if _, err := w.f.Write(frame); err != nil {
		w.dirtyTail = true
		return fmt.Errorf("segstore: wal append: %w", err)
	}
	if w.policy == WALSyncAlways {
		if err := w.f.Sync(); err != nil {
			// After a failed fsync the kernel may have dropped the dirty
			// pages; the frame's durability is unknown, so treat it as torn
			// and truncate before the next write — otherwise replay could
			// resurrect this unacked record at positions a later acked
			// record reuses.
			w.dirtyTail = true
			return fmt.Errorf("segstore: wal sync: %w", err)
		}
	} else {
		w.unsyncedRecords++
		w.unsyncedBytes += int64(len(frame))
	}
	w.goodOff += int64(len(frame))
	w.records += walFrames(len(elems))
	w.nextN += int64(len(elems))
	return nil
}

// repairTailLocked truncates a torn tail back to the last committed frame.
//
//histburst:locked mu
func (w *wal) repairTailLocked() error {
	if err := w.f.Truncate(w.goodOff); err != nil {
		return err
	}
	if _, err := w.f.Seek(w.goodOff, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirtyTail = false
	return nil
}

// Sync repairs any torn tail and fsyncs the log — the durability probe
// burstd uses to decide whether a degraded store has recovered.
func (w *wal) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

//histburst:locked mu
func (w *wal) syncLocked() error {
	if w.closed || w.f == nil {
		return nil
	}
	if w.dirtyTail {
		if err := w.repairTailLocked(); err != nil {
			w.syncErr = err
			return err
		}
	}
	if err := w.f.Sync(); err != nil {
		w.syncErr = err
		return err
	}
	w.syncErr = nil
	w.unsyncedRecords, w.unsyncedBytes = 0, 0
	return nil
}

// rotateLocked starts log file seq+1 holding a baseline of every unsealed
// element (at positions from durableN, in records of at most
// maxWALRecordElems), fsyncs it, and deletes the older files — the log stays O(head). On failure the current file stays
// live and valid; rotation is retried at the next seal.
//
//histburst:locked mu
func (w *wal) rotateLocked(durableN int64, pending stream.Stream) error {
	if w.closed {
		return nil
	}
	seq := w.seq + 1
	name := walFileName(seq)
	path := filepath.Join(w.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("segstore: wal rotate: %w", err)
	}
	buf := append([]byte(nil), walMagic...)
	records := int64(0)
	if len(pending) > 0 {
		// Split at the record bound: one record of more would be refused at
		// the next open, after this rotation deleted the older logs.
		buf = append(buf, encodeWALRecord(durableN, pending)...)
		records = walFrames(len(pending))
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()       //histburst:allow errdrop -- the file is being discarded
		os.Remove(path) //histburst:allow errdrop -- best-effort cleanup; an orphan is swept at the next rotation
		return fmt.Errorf("segstore: wal rotate: %w", err)
	}
	atomicfile.SyncDir(w.dir)

	if w.f != nil {
		w.f.Close() //histburst:allow errdrop -- every committed frame in the old file was already written (and synced under always); the file is superseded
	}
	w.f = f
	w.seq = seq
	w.goodOff = int64(len(buf))
	w.dirtyTail = false
	w.records = records
	w.unsyncedRecords, w.unsyncedBytes = 0, 0
	w.nextN = durableN + int64(len(pending))

	// The new file covers every unsealed position, so the older logs are
	// redundant: any record they hold is either below durableN (sealed) or
	// restated by the baseline. Deletion is best-effort — a survivor is
	// replayed idempotently through the position watermark.
	if entries, err := os.ReadDir(w.dir); err == nil {
		for _, e := range entries {
			n := e.Name()
			if n != name && strings.HasPrefix(n, walFilePrefix) && strings.HasSuffix(n, walFileSuffix) {
				os.Remove(filepath.Join(w.dir, n)) //histburst:allow errdrop -- best-effort sweep; survivors replay idempotently
			}
		}
		atomicfile.SyncDir(w.dir)
	}
	return nil
}

// Close stops the sync loop, flushes the log (except under WALSyncOff,
// whose contract is "never fsync"), and closes the file.
func (w *wal) Close() error {
	close(w.stop)
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	var err error
	if w.f != nil && w.policy != WALSyncOff {
		err = w.syncLocked()
	}
	w.closed = true
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// WALStats is the log's health surface: position, size, and how much acked
// data is still waiting for an fsync (the WAL lag).
type WALStats struct {
	Enabled         bool   `json:"enabled"`
	Policy          string `json:"policy,omitempty"`
	Seq             uint64 `json:"seq,omitempty"`
	Records         int64  `json:"records,omitempty"`
	Bytes           int64  `json:"bytes,omitempty"`
	UnsyncedRecords int64  `json:"unsyncedRecords,omitempty"`
	UnsyncedBytes   int64  `json:"unsyncedBytes,omitempty"`
	SyncErr         string `json:"syncErr,omitempty"`
}

func (w *wal) stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WALStats{
		Enabled: true, Policy: w.policy.String(), Seq: w.seq,
		Records: w.records, Bytes: w.goodOff,
		UnsyncedRecords: w.unsyncedRecords, UnsyncedBytes: w.unsyncedBytes,
	}
	if w.syncErr != nil {
		st.SyncErr = w.syncErr.Error()
	}
	return st
}
