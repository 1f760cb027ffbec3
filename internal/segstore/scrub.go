package segstore

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// The scrubber is the store's background integrity check. Open verifies
// every segment once; bit rot does not wait for restarts, so the scrubber
// re-reads each sealed segment file on a jittered interval and verifies its
// bytes exactly as Open does (verifySegment: magic, CRC over the whole
// file, then the header's parameter pin and element count against the
// manifest meta). A pass reads and checksums; it decodes nothing, so it
// neither builds and discards a detector per segment nor makes a cold
// segment resident. A segment that fails is quarantined: removed from the
// live set manifest-first, its file moved to quarantine/ for forensics,
// and a fresh view published so queries keep serving the survivors. The
// query layer reports the missing span by widening the error envelope
// (see Snapshot.Envelope) rather than pretending the history is whole.

// scrubLoop takes a scrub step on a jittered interval until the store
// stops. The interval is jittered ±half so a fleet of stores opened together
// does not thunder its disks in lockstep.
func (s *Store) scrubLoop() {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for wait(s.stop, time.After(s.scrubEvery/2+time.Duration(rng.Int63n(int64(s.scrubEvery))))) {
		s.scrubOnce() //histburst:allow errdrop -- the step records the failure for Health and logs it
	}
}

// scrubOnce is one scrub step: a pass that verifies every sealed segment in
// the current view against its manifest meta and quarantines the damaged
// ones, then records the pass for Health (ScrubPasses, and ScrubErr, which a
// clean pass clears). The verification reads run lock-free against the
// immutable view; only a quarantine takes mu. The returned error reports
// quarantine-machinery failures (manifest write, file move) — damage itself
// is handled, not returned.
func (s *Store) scrubOnce() error {
	var err error
	for _, g := range s.view.Load().segs {
		if g.meta.File == "" {
			continue
		}
		select {
		case <-s.stop:
			continue // Close is waiting: skip the rest of the pass
		default:
		}
		if _, verr := s.verifySegment(g.meta); verr != nil {
			if qerr := s.quarantine(g.meta, verr); qerr != nil && err == nil {
				err = qerr
			}
		}
	}
	if err != nil {
		s.logf("segstore: scrub pass failed: %v", err)
	}
	s.mu.Lock()
	s.scrubErr = err
	s.mu.Unlock()
	s.scrubPasses.Add(1)
	return err
}

// quarantine removes one damaged segment from service: manifest first
// (commit a view without it, recorded under Quarantined), then the file
// move into quarantine/ — finishQuarantineMoves, which the next open runs
// again for a move a crash left undone. If the segment has already left
// the live set (compacted away between the scrub read and now), the
// "damage" was a stale read — nothing to do.
func (s *Store) quarantine(meta SegmentMeta, cause error) error {
	s.mu.Lock()
	cur := s.view.Load()
	idx := slices.IndexFunc(cur.segs, func(g *Segment) bool { return g.meta.ID == meta.ID })
	if idx < 0 || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.logf("segstore: quarantining segment %d (%s): %v", meta.ID, meta.File, cause)
	next := *cur
	next.segs = slices.Concat(cur.segs[:idx], cur.segs[idx+1:])
	next.quarantined = append(slices.Clip(cur.quarantined), meta)
	if err := s.commitLocked(next); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("quarantine segment %d: %w", meta.ID, err)
	}
	s.mu.Unlock()
	if err := s.finishQuarantineMoves(); err != nil {
		return fmt.Errorf("quarantine segment %d: %w", meta.ID, err)
	}
	return nil
}
