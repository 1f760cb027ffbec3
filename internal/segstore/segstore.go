// Package segstore is the segmented timeline store: the storage layer
// between the sketches and the serving layer. It partitions the event
// timeline into segments — a mutable in-memory head absorbing live appends
// as exact curves, sealed at a configurable size/age threshold into
// immutable PBE-2 sketch segments, with an LSM-style background compactor
// merging runs of small sealed segments through the detector merge
// (histburst.MergeDetectors). Queries combine per-segment cumulative estimates at the three
// instants of b(t) = F(t) − 2F(t−τ) + F(t−2τ): time-disjoint slices of a
// stream have additive cumulative frequencies, so each sketch row sums
// across segments before the median, and the head's exact counts are added
// on top.
//
// Concurrency model: every mutation of the store's composition (freeze,
// seal publication, compaction swap) happens under one mutex and ends by
// publishing a fresh immutable view through an atomic pointer — a
// generation swap. Queries load the view once and run lock-free against it
// (sealed segments are immutable; the head has its own short-lived RWMutex).
// A CRC-checked binenc manifest persists the segment directory; it is
// rewritten atomically on every generation, so a crash at any offset during
// seal or compaction recovers to the previous generation.
package segstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"histburst"
	"histburst/internal/dyadic"
	"histburst/internal/stream"
)

// Defaults for the store's tuning knobs.
const (
	DefaultSealEvents    = 1 << 16
	DefaultCompactFanout = 4
)

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("segstore: store is closed")

// Config configures a store. Sketch parameters (K, Gamma, Seed, D, W)
// follow histburst.New semantics; they are ignored in favor of the
// manifest when an existing store is opened (a conflicting non-zero value
// is an error). The remaining knobs shape the segment lifecycle.
type Config struct {
	K     uint64  // event-id space (required unless a manifest exists)
	Gamma float64 // PBE-2 error cap (default 8)
	Seed  int64   // hash seed (default 1)
	D, W  int     // Count-Min layout (0 = library default)

	// SealEvents freezes the head once it holds this many elements
	// (default DefaultSealEvents; negative disables size-based sealing).
	SealEvents int64
	// CompactFanout is how many adjacent same-class segments one compaction
	// merges (default DefaultCompactFanout; below 2 disables compaction).
	CompactFanout int

	// WALSync selects when the write-ahead log fsyncs (default
	// WALSyncAlways). Persistent stores log every accepted append ahead of
	// applying it, so a crash between checkpoints loses nothing acked.
	WALSync WALSyncPolicy
	// WALSyncEvery is the background fsync cadence under WALSyncInterval
	// (default DefaultWALSyncEvery).
	WALSyncEvery time.Duration
	// DisableWAL turns the write-ahead log off entirely: the store reverts
	// to checkpoint-grained durability.
	DisableWAL bool

	// ScrubInterval is the cadence of the background segment scrubber,
	// which re-verifies segment file CRCs and manifest agreement and
	// quarantines damaged segments (0 = DefaultScrubInterval; negative
	// disables). Only persistent stores scrub.
	ScrubInterval time.Duration

	// DecayTiers, when non-empty, enables time-decayed compaction: once a
	// sealed segment's event-time age (store frontier minus the segment's
	// MaxT) reaches a tier's Age, the compactor re-summarizes it — together
	// with adjacent neighbors of the same fidelity bound for the same tier —
	// at the tier's coarser fidelity. Tiers must be strictly ascending in
	// Age; see DecayTier for the per-tier constraints. Decay runs on the
	// compaction goroutine, so it requires CompactFanout ≥ 2.
	DecayTiers []DecayTier

	// Logf, when set, receives operational log lines (quarantine events,
	// replay anomalies). Nil discards them.
	Logf func(format string, args ...any)
}

// DecayTier describes one age tier of the time-decay policy. Aging is
// measured in event time, the only clock the store has: a segment's age is
// the store frontier minus the segment's MaxT, so tiers only take effect
// while ingest keeps the frontier moving. Each tier's fidelity must be
// expressible as a downsample of the previous tier's (and, transitively, of
// the store's full fidelity), which is what lets a segment decay straight to
// the deepest tier its age demands.
type DecayTier struct {
	// Age is the event-time age at which the tier takes effect. Must be
	// positive and strictly ascending across tiers.
	Age int64
	// Gamma is the tier's per-cell PBE-2 error cap. It must be at least
	// (W_prev / W) · Gamma_prev — the summed caps of the previous tier's
	// cells folded into each output cell. Zero means exactly that minimum.
	Gamma float64
	// W is the tier's Count-Min width; it must divide the previous tier's
	// width. Zero keeps the previous width.
	W int
	// Res is the tier's time-resolution grid: estimates stay γ-accurate at
	// res-aligned instants and may additionally lag by the in-cell count
	// change between them. Must be at least the previous tier's; zero keeps
	// it.
	Res int64
}

// resolveDecayTiers validates the tier ladder against the store's full
// fidelity and fills in the zero-value defaults, returning the resolved
// tiers.
func resolveDecayTiers(tiers []DecayTier, params histburst.SketchParams) ([]DecayTier, error) {
	if len(tiers) > maxDecayTiers {
		return nil, fmt.Errorf("segstore: %d decay tiers exceed the maximum %d", len(tiers), maxDecayTiers)
	}
	out := make([]DecayTier, len(tiers))
	prevAge := int64(0)
	prevGamma := params.Gamma
	prevW := params.W
	prevRes := int64(1)
	for i, t := range tiers {
		if t.Age <= prevAge {
			return nil, fmt.Errorf("segstore: decay tier %d age %d is not strictly ascending (previous %d)", i, t.Age, prevAge)
		}
		if t.W == 0 {
			t.W = prevW
		}
		if t.W < 1 || prevW%t.W != 0 {
			return nil, fmt.Errorf("segstore: decay tier %d width %d must divide the previous width %d", i, t.W, prevW)
		}
		minGamma := float64(prevW/t.W) * prevGamma
		if t.Gamma == 0 {
			t.Gamma = minGamma
		}
		if t.Gamma < minGamma {
			return nil, fmt.Errorf("segstore: decay tier %d gamma %v below folded source error %v (= %d/%d × %v)",
				i, t.Gamma, minGamma, prevW, t.W, prevGamma)
		}
		if t.Res == 0 {
			t.Res = prevRes
		}
		if t.Res < prevRes {
			return nil, fmt.Errorf("segstore: decay tier %d resolution %d below the previous tier's %d", i, t.Res, prevRes)
		}
		out[i] = t
		prevAge, prevGamma, prevW, prevRes = t.Age, t.Gamma, t.W, t.Res
	}
	return out, nil
}

// storeView is one immutable generation of the store's composition, and
// the store's only copy of it. Replaced wholesale under Store.mu — by
// commitLocked when the manifest must name the change, by a plain publish
// when only the heads moved — and read via Store.view without locks. A next
// view is built copy-on-write: never append into a slice a published view
// holds.
type storeView struct {
	gen         uint64
	segs        []*Segment    // ascending time order; elements immutable
	quarantined []SegmentMeta // segments removed from service (damage), metadata only
	frozen      []*memHead    // freeze order; awaiting the sealer
	head        *memHead
}

// durable returns the write-ahead log's durable watermark for v: every
// element a segment of v holds or held, quarantined ones included.
func (v *storeView) durable() int64 {
	n := int64(0)
	for _, g := range v.segs {
		n += g.meta.Elements
	}
	for _, q := range v.quarantined {
		n += q.Elements
	}
	return n
}

// Store is a segmented timeline store. All methods are safe for concurrent
// use.
type Store struct {
	dir        string // "" = volatile (no files, no manifest)
	params     histburst.SketchParams
	kfold      uint64       // event ids are folded modulo this (detector K())
	shape      dyadic.Shape // every segment's event index's: (K, D, W) fix it, decay keeps it
	sealEvents int64        // freeze the head once it holds this many elements (0 = off)
	fanout     int64        // < 2 disables compaction
	tiers      []DecayTier  // resolved decay ladder; empty disables decay

	// ingestMu serializes the write path — admission, log append and head
	// apply (ingest.go) — and WAL rotation, which quiesces ingest while it
	// captures the unsealed baseline.
	//
	//histburst:lockorder Store.ingestMu wal.mu
	//histburst:lockorder Store.ingestMu Store.mu
	ingestMu sync.Mutex

	// sealMu serializes seal steps, so the sealer and any number of
	// checkpointers never build one frozen head twice.
	//
	//histburst:lockorder Store.sealMu Store.ingestMu
	//histburst:lockorder Store.sealMu Store.mu
	sealMu sync.Mutex

	// mu serializes composition changes: freezing the head, committing
	// seals, compaction swaps and quarantines, and ID issue.
	mu sync.Mutex

	// nextID, closed, bgErr and scrubErr are guarded by mu. An ID taken by
	// a commit that failed is skipped, never reused.
	nextID   uint64
	closed   bool
	bgErr    error // first background seal/compaction failure, sticky
	scrubErr error // last scrub pass failure (nil after a clean pass)

	//histburst:atomic
	view atomic.Pointer[storeView]
	//histburst:atomic
	rejected atomic.Int64 // out-of-order appends refused

	// wal is the write-ahead log (nil for volatile or DisableWAL stores).
	// Its mu is the log's own lock, held only across a log append, a sync
	// or a rotation; it is never taken under mu.
	//
	//histburst:lockorder wal.mu Store.mu
	wal *wal

	scrubEvery time.Duration
	//histburst:atomic
	scrubPasses atomic.Int64
	logf        func(format string, args ...any)

	sealNudge    chan struct{} // a head froze
	compactNudge chan struct{}
	stop         chan struct{}
	wg           sync.WaitGroup

	// noMerge records runs whose merge failed (equal boundary timestamps
	// from a forced seal); touched only by compaction steps, which run on
	// one goroutine.
	noMerge map[string]bool
}

// DefaultScrubInterval is the background scrubber's default cadence.
const DefaultScrubInterval = time.Minute

// start launches the workers, each a loop that waits, then steps: the
// sealer, the compactor (nudged once for what the recovered layout owes),
// the scrubber and the log's interval fsync.
//
//histburst:worker stop
func (s *Store) start() {
	s.wg.Add(1)
	go s.sealLoop()
	if s.fanout >= 2 {
		s.wg.Add(1)
		go s.compactLoop()
		nudge(s.compactNudge)
	}
	if s.dir != "" && s.scrubEvery > 0 {
		s.wg.Add(1)
		go s.scrubLoop()
	}
	if s.wal != nil {
		s.wal.start()
	}
}

// freezeHead retires the head of view v: the head is marked immutable and
// queued for the sealer, and a fresh head is published. With
// keepTail set, elements at the final timestamp move to the fresh head so
// the sealed boundary stays strictly increasing (see memHead.freeze).
func (s *Store) freezeHead(v *storeView, keepTail bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	cur := s.view.Load()
	if cur.head != v.head {
		return nil // lost the race; the caller retries on the fresh view
	}
	tail := cur.head.freeze(keepTail)
	next := s.retireHeadLocked(cur)
	next.head.appendBatch(tail, s.kfold, 0) // one timestamp, at or past the floor: all land
	s.view.Store(&next)
	return nil
}

// retireHeadLocked returns cur with its head, which the caller has frozen,
// queued for the sealer when it holds elements, and a fresh head behind it.
// Only the heads move, so the next view is published without a manifest
// write.
//
//histburst:locked mu
func (s *Store) retireHeadLocked(cur *storeView) storeView {
	next := *cur
	h := cur.head
	if n, _, _, _ := h.snapshot(); n > 0 {
		h.sealID = s.nextID
		s.nextID++
		next.frozen = append(slices.Clip(cur.frozen), h)
		nudge(s.sealNudge)
	}
	next.head = newMemHead(h.frontier())
	return next
}

// commitLocked makes next the store's composition: it takes the next
// generation, writes next's manifest (persistent stores only), and
// publishes next. If the manifest write fails, nothing in memory changes:
// the files a caller wrote for next are orphans for the open-time sweep.
//
//histburst:locked mu
func (s *Store) commitLocked(next storeView) error {
	next.gen = s.view.Load().gen + 1
	if s.dir != "" {
		m := &Manifest{Generation: next.gen, NextID: s.nextID, Params: s.params, Quarantined: next.quarantined}
		m.Segments = make([]SegmentMeta, len(next.segs))
		for i, g := range next.segs {
			m.Segments[i] = g.meta
		}
		if err := WriteManifest(filepath.Join(s.dir, ManifestName), m); err != nil {
			return err
		}
	}
	s.view.Store(&next)
	return nil
}

// sealLoop takes seal steps after every freeze until the queue is empty,
// and stops at its first failure: the store is wedged for durability until
// the error is observed. With the WAL on, the wedge is softer than it
// sounds: every unsealed element is still in the log, so a restart recovers.
func (s *Store) sealLoop() {
	defer s.wg.Done()
	for wait(s.stop, s.sealNudge) && s.drain(s.sealOnce) == nil {
	}
}

// sealOnce is one seal step: it builds every frozen head concurrently, one
// goroutine per head, and commits the longest successful prefix as one
// generation in freeze order, so segs stays time-sorted without any
// sorting and the manifest is written once per batch. A failure is recorded
// as bgErr; the heads behind it, or the whole batch if the commit fails,
// stay frozen and queryable. Steps serialize on sealMu, so any goroutine may
// take one, and only a step removes frozen heads: the batch stays the
// view's frozen prefix until this step commits.
func (s *Store) sealOnce() (progressed bool, err error) {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	batch := s.view.Load().frozen
	if len(batch) == 0 {
		return false, nil
	}

	built := make([]*Segment, len(batch))
	errs := make([]error, len(batch))
	parallel(len(batch), func(i int) { built[i], errs[i] = s.buildSegment(batch[i]) })
	ok := 0
	for ok < len(batch) && errs[ok] == nil {
		ok++
	}
	if ok < len(batch) {
		err = errs[ok]
	}

	s.mu.Lock()
	if ok > 0 {
		cur := s.view.Load()
		next := *cur
		next.segs = slices.Concat(cur.segs, built[:ok])
		next.frozen = cur.frozen[ok:]
		if cerr := s.commitLocked(next); cerr != nil {
			ok, err = 0, cerr
		}
	}
	if err != nil {
		err = fmt.Errorf("segstore: seal: %w", err)
		if s.bgErr == nil {
			s.bgErr = err
		}
	}
	s.mu.Unlock()
	if err != nil {
		return ok > 0, err
	}
	// The just-sealed elements are durable in segments now; rewrite the log
	// down to the remaining unsealed suffix so it stays O(head). Failure is
	// retried at the next seal — the oversized log is only a space cost,
	// never a correctness one.
	s.ingestMu.Lock()
	rerr := s.rotateWAL()
	s.ingestMu.Unlock()
	if rerr != nil {
		s.logf("segstore: wal rotation failed (will retry at next seal): %v", rerr)
	}
	nudge(s.compactNudge)
	return true, nil
}

// sealFrozen takes seal steps on the caller's goroutine until the frozen
// queue is empty or a background failure is on record.
func (s *Store) sealFrozen() error {
	for {
		if err := s.Err(); err != nil {
			return err
		}
		if progressed, err := s.sealOnce(); err != nil || !progressed {
			return err
		}
	}
}

// rotateWAL rewrites the log as a baseline of the store's current
// unsealed elements. The caller holds ingestMu (Open, before the store is
// shared, need not), so ingest is quiesced while the baseline is captured
// and written.
//
//histburst:locked ingestMu
func (s *Store) rotateWAL() error {
	if s.wal == nil {
		return nil
	}
	// mu keeps a checkpoint's freeze from splitting the live head's tail
	// off while it is read. Each head merges into time order on its own, in
	// freeze order, so the baseline still splits at head boundaries — where
	// the durable watermark moves as each frozen head seals.
	s.mu.Lock()
	v := s.view.Load()
	var pending stream.Stream
	collect := func(e uint64, t int64) { pending = append(pending, stream.Element{Event: e, Time: t}) }
	for _, h := range v.frozen {
		h.inOrder(collect)
	}
	v.head.inOrder(collect)
	s.mu.Unlock()
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.rotateLocked(v.durable(), pending)
}

// buildSegment summarizes a frozen head into an immutable sketch segment
// and persists its detector file. The head is immutable here, so this runs
// without holding any store lock; its sequences stream through the merge
// straight into the detector.
func (s *Store) buildSegment(h *memHead) (*Segment, error) {
	n, minT, maxT, _ := h.snapshot()
	det, err := histburst.NewFromParams(s.params)
	if err != nil {
		return nil, err
	}
	h.inOrder(det.Append)
	det.Finish()
	meta := SegmentMeta{
		ID: h.sealID, Start: minT, End: maxT, MinT: minT, MaxT: maxT, Elements: n,
	}
	if s.dir != "" {
		meta.File = segFileName(meta.ID)
		if err := det.SaveFile(filepath.Join(s.dir, meta.File)); err != nil {
			return nil, err
		}
	}
	return residentSegment(meta, det), nil
}

// Checkpoint freezes the head and seals every frozen head on the caller's
// goroutine; it returns once the manifest naming them is durable. In the
// default split mode, elements at the frontier timestamp stay in the new
// head (keeping sealed boundaries strictly increasing and therefore
// compactable); they are covered by the next checkpoint. With all set, the
// entire head is sealed — the right mode for shutdown, after which no
// element can straddle the boundary.
func (s *Store) Checkpoint(all bool) error {
	v := s.view.Load()
	if n, _, _, _ := v.head.snapshot(); n > 0 {
		if err := s.freezeHead(v, !all); err != nil {
			return err
		}
	}
	return s.sealFrozen()
}

// Bootstrap installs an existing detector as the store's first sealed
// segment — how a saved sketch or a prebuilt dataset seeds a new store. The
// store must be empty and, when it was opened from a manifest, the detector
// parameter-identical to it. On a fresh store the detector's parameters are
// checked against the resolved config the same way. An empty detector is a
// no-op.
func (s *Store) Bootstrap(det *histburst.Detector) error {
	if det == nil {
		return fmt.Errorf("segstore: nil detector")
	}
	if p := det.Params(); p != s.params {
		return fmt.Errorf("segstore: detector parameters %+v do not match store %+v", p, s.params)
	}
	// The durable position jumps by det.N(); ingest waits until the
	// rotation has moved the log's positions with it, or an append could
	// log at a position the new segment already covers.
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := s.bootstrapInstall(det); err != nil {
		return err
	}
	return s.rotateWAL()
}

// bootstrapInstall is Bootstrap's composition change, under mu.
func (s *Store) bootstrapInstall(det *histburst.Detector) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	cur := s.view.Load()
	n, _, _, _ := cur.head.snapshot()
	if len(cur.segs) > 0 || len(cur.frozen) > 0 || n > 0 {
		return fmt.Errorf("segstore: store is not empty")
	}
	if det.N() == 0 {
		return nil
	}
	det.Finish()
	meta := SegmentMeta{
		ID:    s.nextID,
		Start: det.MinTime(), End: det.MaxTime(),
		MinT: det.MinTime(), MaxT: det.MaxTime(),
		Elements: det.N(),
	}
	if s.dir != "" {
		meta.File = segFileName(meta.ID)
		if err := det.SaveFile(filepath.Join(s.dir, meta.File)); err != nil {
			return err
		}
	}
	s.nextID++
	next := *cur
	next.segs = []*Segment{residentSegment(meta, det)}
	next.head = newMemHead(meta.MaxT)
	return s.commitLocked(next)
}

// Close seals everything (full checkpoint), stops the background workers,
// and marks the store unusable. Idempotent; the first error wins.
func (s *Store) Close() error {
	err := s.Checkpoint(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return err
	}
	s.closed = true
	// Queue the live head for the sealer behind an empty, frozen head, so
	// late Appends bounce into freezeHead, which reports ErrClosed, instead
	// of landing in a dead head. An append that raced in between the final
	// checkpoint and here still gets sealed, below, once the workers have
	// stopped.
	cur := s.view.Load()
	cur.head.freeze(false)
	next := s.retireHeadLocked(cur)
	next.head.freeze(false)
	s.view.Store(&next)
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	if err == nil {
		err = s.sealFrozen()
	}
	if s.wal != nil {
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// SyncWAL repairs and flushes the write-ahead log — the durability probe a
// degraded server retries until the disk recovers. A store without a WAL
// trivially succeeds.
func (s *Store) SyncWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// StoreHealth is the store's self-diagnosis for serving-layer probes.
type StoreHealth struct {
	// Err is the sticky background seal/compaction failure, if any.
	Err string `json:"err,omitempty"`
	// ScrubErr is the last scrub pass's failure, if any (cleared by the
	// next clean pass).
	ScrubErr string `json:"scrubErr,omitempty"`
	// ScrubPasses counts completed scrub passes.
	ScrubPasses int64 `json:"scrubPasses"`
	// WAL reports the log position and lag.
	WAL WALStats `json:"wal"`
	// Quarantined counts segments removed from service for damage, and
	// QuarantinedElements how many elements their spans held.
	Quarantined         int   `json:"quarantined"`
	QuarantinedElements int64 `json:"quarantinedElements"`
}

// Health reports the store's durability and integrity state.
func (s *Store) Health() StoreHealth {
	var h StoreHealth
	s.mu.Lock()
	if s.bgErr != nil {
		h.Err = s.bgErr.Error()
	}
	if s.scrubErr != nil {
		h.ScrubErr = s.scrubErr.Error()
	}
	s.mu.Unlock()
	for _, q := range s.view.Load().quarantined {
		h.Quarantined++
		h.QuarantinedElements += q.Elements
	}
	h.ScrubPasses = s.scrubPasses.Load()
	if s.wal != nil {
		h.WAL = s.wal.stats()
	}
	return h
}

// nudge wakes the worker waiting on ch without blocking.
func nudge(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// wait blocks a worker until ch delivers (true) or stop closes (false).
func wait[T any](stop <-chan struct{}, ch <-chan T) bool {
	select {
	case <-stop:
		return false
	case <-ch:
		return true
	}
}

// drain takes steps until one makes no progress or fails, or the store
// stops.
func (s *Store) drain(step func() (bool, error)) error {
	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		if progressed, err := step(); err != nil || !progressed {
			return err
		}
	}
}

// Rejected returns how many out-of-order appends were refused.
func (s *Store) Rejected() int64 { return s.rejected.Load() }

// K returns the store's (rounded) event-id space size.
func (s *Store) K() uint64 { return s.kfold }

// Params returns the store's resolved sketch parameters.
func (s *Store) Params() histburst.SketchParams { return s.params }

// Err returns the first background seal/compaction failure, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bgErr
}

// Dir returns the store directory ("" for volatile stores).
func (s *Store) Dir() string { return s.dir }
