package segstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"histburst"
	"histburst/internal/atomicfile"
)

// Compaction keeps the segment count logarithmic in the stream length:
// every seal produces a level-0 segment of ~SealEvents elements, and
// whenever fanout adjacent segments share a size class the compactor
// merges them — the streaming kernel reads the finished inputs in time
// order without cloning them — into one segment a class up. The swap is a
// generation bump: new file fsynced, manifest rewritten atomically, view
// republished, and only then are the tombstoned input files deleted. A
// crash anywhere in that sequence leaves either the old generation (new
// file swept as an orphan at open) or the new one (old files swept), never
// a mix.
//
// Merges and decays are jobs of one executor, rebuildOnce: build every
// job's replacement concurrently, then swap each in. Runs whose inputs share
// a boundary timestamp may not merge (a forced whole-head seal can produce
// equal boundaries, and a summary cell that counted the shared timestamp on
// both sides refuses: each part's curve is pinned one tick before its first
// arrival). Such runs are remembered and skipped — their segments stay live
// and queryable, merely unmerged.

// compactLoop takes compaction steps after every nudge until one makes no
// progress or fails; the next nudge retries a failed one.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	for wait(s.stop, s.compactNudge) {
		s.drain(s.compactOnce)
	}
}

// compactOnce is one compaction step: a decay scan, then a merge scan.
// Decay goes first: a segment's tier is then decided by its own age. Merged
// first, an aged segment takes the age of the youngest member of its run and
// keeps full fidelity until that one ages too — so which tier history ended
// up in depended on whether a restart had interrupted the merges (four
// SIGKILLs at "ready" left bench's http_mixed at 4.0 or 4.9 B/elem).
// The step's outcome is recorded as compactErr.
func (s *Store) compactOnce() (progressed bool, err error) {
	decayed, err := s.rebuildOnce("decay", s.decayJobs())
	merged := false
	if err == nil {
		merged, err = s.rebuildOnce("compaction", s.mergeJobs())
	}
	if err != nil {
		err = fmt.Errorf("segstore: %w", err)
	}
	s.mu.Lock()
	s.compactErr = err
	s.mu.Unlock()
	return decayed || merged, err
}

// A rebuild is one job of the compactor: build a segment to replace run —
// a merge or a decay of it — and, if build fails, remember key in noMerge
// so later scans pass the run over.
type rebuild struct {
	run   []*Segment
	key   string
	build func() (*Segment, error)
}

// mergeJobs returns a merge job for every eligible run.
func (s *Store) mergeJobs() []rebuild {
	var jobs []rebuild
	for _, run := range s.pickRuns(s.view.Load().segs) {
		jobs = append(jobs, rebuild{run, runKey(run), func() (*Segment, error) { return s.mergeRun(run) }})
	}
	return jobs
}

// rebuildOnce runs one scan's jobs. Their runs are disjoint and each kernel
// only reads its own finished sources, so the builds run concurrently and
// only the swaps serialize on mu. A failed build is a policy outcome, not a
// store failure: the run is remembered, logged, and serves as it is.
// progressed reports whether another scan might find more work.
func (s *Store) rebuildOnce(what string, jobs []rebuild) (progressed bool, err error) {
	built := make([]*Segment, len(jobs))
	errs := make([]error, len(jobs))
	parallel(len(jobs), func(i int) { built[i], errs[i] = jobs[i].build() })
	for i, job := range jobs {
		if errs[i] != nil {
			s.noMerge[job.key] = true
			s.logf("segstore: %s of run %s skipped: %v", what, runKey(job.run), errs[i])
		} else if err := s.swapRun(job.run, built[i]); err != nil {
			return true, fmt.Errorf("%s: %w", what, err)
		}
	}
	return len(jobs) > 0, nil
}

// parallel calls fn(0), …, fn(n−1) concurrently and returns once every call
// has.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// swapRun commits merged in place of run: ID assignment, segment file
// write, commit, then tombstone deletion. A failed commit skips its ID, so
// each failed attempt leaves one orphan file for the open-time sweep.
func (s *Store) swapRun(run []*Segment, merged *Segment) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	cur := s.view.Load()
	lo := findRun(cur.segs, run)
	if lo < 0 {
		// The composition changed under us (cannot happen with a single
		// compactor, but stay defensive); drop the work.
		s.mu.Unlock()
		return nil
	}
	merged.meta.ID = s.nextID
	s.nextID++
	if s.dir != "" {
		merged.meta.File = segFileName(merged.meta.ID)
		path := filepath.Join(s.dir, merged.meta.File)
		// The write happens under mu: it orders the file ahead of the
		// manifest that references it, and compaction is rare enough that
		// stalling other composition changes for one segment write is the
		// simplicity worth having.
		if err := merged.det.Load().SaveFile(path); err != nil { // built by mergeRun/decayRun, so resident
			s.mu.Unlock()
			return err
		}
	}
	next := *cur
	next.segs = slices.Concat(cur.segs[:lo], []*Segment{merged}, cur.segs[lo+len(run):])
	if err := s.commitLocked(next); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()

	// Old generation files are tombstones now: the manifest no longer
	// references them, so deleting is safe, and a crash before deletion
	// just leaves orphans for the next open's sweep.
	if s.dir != "" {
		for _, g := range run {
			os.Remove(filepath.Join(s.dir, g.meta.File)) //histburst:allow errdrop -- tombstoned input; the open-time sweep collects survivors
		}
		atomicfile.SyncDir(s.dir)
	}
	return nil
}

// pickRuns returns every disjoint run of fanout adjacent segments sharing a
// size class and fidelity, oldest first, skipping runs already known
// unmergeable. (Mixed-fidelity neighbors cannot merge — the merge kernel
// requires identical configurations — but equal-fidelity decayed segments
// compact exactly like full-fidelity ones.) The runs never overlap — the
// scan resumes past each pick — so their merges are independent. Operates on
// an immutable view slice, so no lock is needed.
func (s *Store) pickRuns(segs []*Segment) [][]*Segment {
	n := int(s.fanout)
	if n < 2 || len(segs) < n {
		return nil
	}
	var runs [][]*Segment
	for lo := 0; lo+n <= len(segs); lo++ {
		lvl := segs[lo].level(s.sealEvents, s.fanout)
		ok := true
		for i := 1; i < n; i++ {
			if segs[lo+i].level(s.sealEvents, s.fanout) != lvl ||
				!sameFidelity(segs[lo+i].meta, segs[lo].meta) {
				ok = false
				break
			}
		}
		if ok && !s.noMerge[runKey(segs[lo:lo+n])] {
			runs = append(runs, segs[lo:lo+n])
			lo += n - 1
		}
	}
	return runs
}

// runKey identifies a run by its segment IDs. IDs are never reused, so a
// key marked unmergeable stays meaningful across composition changes.
func runKey(run []*Segment) string {
	var b strings.Builder
	for i, g := range run {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(strconv.FormatUint(g.meta.ID, 10))
	}
	return b.String()
}

// findRun locates run (by ID) as a contiguous slice of segs, returning its
// start index or -1.
func findRun(segs, run []*Segment) int {
	for lo := 0; lo+len(run) <= len(segs); lo++ {
		match := true
		for i := range run {
			if segs[lo+i].meta.ID != run[i].meta.ID {
				match = false
				break
			}
		}
		if match {
			return lo
		}
	}
	return -1
}

// mergeRun builds the replacement segment with the streaming merge kernel:
// MergeDetectors reads the sealed sources' packed arrays directly and never
// mutates them, so no clones are materialized and the originals keep
// serving queries throughout.
//
//histburst:fastpath mergeRunNaive
func (s *Store) mergeRun(run []*Segment) (*Segment, error) {
	dets, err := runDetectors(run)
	if err != nil {
		return nil, err
	}
	out, err := histburst.MergeDetectors(dets)
	if err != nil {
		return nil, err
	}
	return residentSegment(runMeta(run), out), nil
}

// runDetectors returns the detectors of a run the compactor picked, decoding
// the ones nothing has touched yet — picking reads only metadata, so this is
// where a merge or decay of cold history pays for it.
func runDetectors(run []*Segment) ([]*histburst.Detector, error) {
	dets := make([]*histburst.Detector, len(run))
	for i, g := range run {
		if dets[i] = g.detector(); dets[i] == nil {
			return nil, fmt.Errorf("segstore: segment %d does not decode", g.meta.ID)
		}
	}
	return dets, nil
}

// runMeta derives the merged segment's manifest record from the run it
// replaces. Fidelity metadata carries over from the first segment — pickRuns
// and pickDecayRuns only group equal-fidelity neighbors.
func runMeta(run []*Segment) SegmentMeta {
	first, last := run[0].meta, run[len(run)-1].meta
	elements := int64(0)
	for _, g := range run {
		elements += g.meta.Elements
	}
	return SegmentMeta{
		Start: first.Start, End: last.End,
		MinT: first.MinT, MaxT: last.MaxT,
		Elements: elements, Compacted: true,
		Tier: first.Tier, Gamma: first.Gamma, W: first.W, Res: first.Res,
	}
}
