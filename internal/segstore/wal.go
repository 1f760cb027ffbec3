package segstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

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
// rotation rewrites the log as one baseline record holding every unsealed
// element, overlapping old and new log files replay to the same state.
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
	// maxWALRecordElems bounds one record's element count for the decoder.
	maxWALRecordElems = 1 << 26
)

// walMagic identifies WAL file format v1 ("HBW1"), written raw at offset 0.
var walMagic = []byte{'H', 'B', 'W', '1'}

func walFileName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", walFilePrefix, seq, walFileSuffix)
}

// walRecord is one decoded log record: the accepted elements of one commit,
// starting at global element position startN.
type walRecord struct {
	startN int64
	elems  stream.Stream
}

// encodeWALRecord frames one record: payload = startN, element count, then
// the elements as an element run (stream.AppendRun). Records hold an
// accepted set, so times never decrease within one.
func encodeWALRecord(startN int64, elems stream.Stream) []byte {
	var payload binenc.Writer
	payload.Uvarint(uint64(startN))
	payload.Uvarint(uint64(len(elems)))
	stream.AppendRun(&payload, elems)
	body := payload.Bytes()
	var frame binenc.Writer
	frame.Uint32(uint32(len(body)))
	frame.Uint32(crc32.Checksum(body, crcTable))
	return append(frame.Bytes(), body...)
}

// decodeWALRecord parses one frame payload (already CRC-verified). Corrupt
// input of any shape yields an error, never a panic, and cannot trigger
// allocations beyond a small multiple of the input size.
//
//histburst:decoder
func decodeWALRecord(payload []byte) (walRecord, error) {
	dec := binenc.NewReader(payload)
	startN := dec.Uvarint()
	elems := make(stream.Stream, dec.SliceLen(maxWALRecordElems, stream.MinElemBytes))
	stream.ReadRun(dec, elems)
	if err := dec.Close(); err != nil {
		return walRecord{}, fmt.Errorf("segstore: wal record: %w", err)
	}
	if int64(startN) < 0 {
		return walRecord{}, fmt.Errorf("segstore: wal record: implausible start position %d", startN)
	}
	return walRecord{startN: int64(startN), elems: elems}, nil
}

// parseWALFile parses one log file's bytes into its record sequence,
// applying the torn-tail rule: the parse ends at the first frame that is
// truncated, oversized, CRC-mismatched, or undecodable, and every record
// before it stands. clean reports whether the file ended exactly at a frame
// boundary with a valid magic (false means trailing bytes were dropped).
func parseWALFile(data []byte) (recs []walRecord, clean bool) {
	if len(data) < len(walMagic) || !bytes.Equal(data[:len(walMagic)], walMagic) {
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
		rec, err := decodeWALRecord(body)
		if err != nil {
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
// as the newest record covering it wrote it. The returned wal has no live
// file yet — the store applies the replay and then rotates, which starts a
// fresh log and deletes the old files.
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
	w.records++
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

// rotateLocked starts log file seq+1 holding one baseline record of every
// unsealed element (at positions from durableN), fsyncs it, and deletes the
// older files — the log stays O(head). On failure the current file stays
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
		buf = append(buf, encodeWALRecord(durableN, pending)...)
		records = 1
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
