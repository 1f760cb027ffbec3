package segstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"histburst"
	"histburst/internal/atomicfile"
	"histburst/internal/stream"
)

// Open's recovery path: load and check the manifest, verify every segment
// it names, quarantine the damaged ones, sweep crash debris and replay the
// write-ahead log into the head.
// Open opens (or creates) a store in dir. An empty dir makes the store
// volatile: fully functional, nothing persisted. If dir holds a manifest,
// the segment directory is recovered from it — every referenced segment
// file is read and verified (a damaged one is quarantined, not fatal; one of
// another format generation is fatal, and the directory is left untouched)
// and its summary left undecoded until a query first touches it,
// unreferenced segment or temp files (debris of a crashed seal or
// compaction) are swept, and the write-ahead log is replayed into the head
// so nothing acked before the crash is missing.
func Open(dir string, cfg Config) (*Store, error) {
	s, err := open(dir, cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// open is Open without start: until the workers run, background work runs
// only as steps some goroutine takes (sealOnce, compactOnce, scrubOnce).
func open(dir string, cfg Config) (*Store, error) {
	s := &Store{
		dir:          dir,
		sealNudge:    make(chan struct{}, 1),
		compactNudge: make(chan struct{}, 1),
		stop:         make(chan struct{}),
		noMerge:      make(map[string]bool),
		logf:         cfg.Logf,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}

	s.sealEvents = cfg.SealEvents
	if s.sealEvents == 0 {
		s.sealEvents = DefaultSealEvents
	} else if s.sealEvents < 0 {
		s.sealEvents = 0
	}
	s.fanout = int64(cfg.CompactFanout)
	if cfg.CompactFanout == 0 {
		s.fanout = DefaultCompactFanout
	}
	s.scrubEvery = cfg.ScrubInterval
	if s.scrubEvery == 0 {
		s.scrubEvery = DefaultScrubInterval
	}

	params := histburst.SketchParams{
		K: cfg.K, Seed: cfg.Seed, D: cfg.D, W: cfg.W, Gamma: cfg.Gamma,
	}
	if params.Seed == 0 {
		params.Seed = 1
	}
	if params.Gamma == 0 {
		params.Gamma = 8
	}

	var man *Manifest
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		man, err = LoadManifest(filepath.Join(dir, ManifestName))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	if man != nil {
		if err := checkConfigAgainstManifest(params, man.Params); err != nil {
			return nil, err
		}
		params = man.Params
		s.nextID = man.NextID //histburst:allow lockguard -- Open constructs the store before it is shared
	}
	if params.K == 0 {
		return nil, fmt.Errorf("segstore: config K is required for a new store")
	}
	// The template validates the resolved parameters once and pins the id
	// folding every head and segment must agree on.
	template, err := histburst.NewFromParams(params)
	if err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	params = template.Params() // resolved D/W for defaulted layouts
	s.params = params
	s.kfold = template.K()
	s.shape = template.EventIndex().Shape
	if len(cfg.DecayTiers) > 0 {
		if s.fanout < 2 {
			return nil, fmt.Errorf("segstore: decay tiers require compaction (CompactFanout ≥ 2)")
		}
		s.tiers, err = resolveDecayTiers(cfg.DecayTiers, params)
		if err != nil {
			return nil, err
		}
	}

	// The manifest's composition, less the segments that fail verification.
	var v storeView
	var damaged []SegmentMeta
	frontier := int64(0)
	if man != nil {
		v.gen = man.Generation
		for _, meta := range man.Segments {
			data, err := s.verifySegment(meta)
			if errors.Is(err, histburst.ErrUnsupportedFormat) {
				// Not damage: a whole file of another format generation,
				// as every other segment here will be. Nothing has been
				// written yet; leave the directory exactly as it is.
				return nil, err
			}
			if err != nil {
				// Referenced files were fsynced before the manifest named
				// them, so this is real damage, not a crash artifact —
				// quarantine it loudly and keep serving the survivors. The
				// frontier still advances past the damaged span: the store
				// must never re-accept times a sealed segment covered.
				s.logf("segstore: quarantining segment %d (%s): %v", meta.ID, meta.File, err)
				damaged = append(damaged, meta)
			} else {
				v.segs = append(v.segs, &Segment{meta: meta, fileBytes: len(data), owner: s, raw: data})
			}
			frontier = max(frontier, meta.MaxT)
		}
		for _, meta := range man.Quarantined {
			frontier = max(frontier, meta.MaxT)
		}
		v.quarantined = slices.Concat(man.Quarantined, damaged)
	}
	v.head = newMemHead(frontier)

	// The logs are read before anything is written: one of another format
	// generation refuses the open with the directory untouched.
	var replay stream.Stream
	if dir != "" && !cfg.DisableWAL {
		if s.wal, replay, err = openWAL(dir, cfg.WALSync, cfg.WALSyncEvery, v.durable()); err != nil {
			return nil, err
		}
	}

	s.view.Store(&v)
	if len(damaged) > 0 {
		if err := s.commitLocked(v); err != nil { //histburst:allow lockguard -- single-goroutine construction; no other goroutine exists yet
			return nil, err
		}
	}
	if dir != "" {
		// Manifest-first quarantine protocol: finish any file move a crash
		// (or the quarantine just above) left undone, then sweep debris.
		// With no manifest nothing is live: a crash in a fresh store's
		// first seal or Bootstrap left only debris.
		if err := s.finishQuarantineMoves(); err != nil {
			return nil, err
		}
		if err := s.sweepOrphans(); err != nil {
			return nil, err
		}
	}

	if s.wal != nil {
		if len(replay) > 0 {
			accepted, rej := admitBatch(replay, s.Frontier())
			if err := s.apply(accepted); err != nil {
				return nil, fmt.Errorf("segstore: wal replay: %w", err)
			}
			if rej > 0 {
				// Positions said these elements were unsealed, yet admission
				// refused them — the log and manifest disagree. Serve what
				// was applied and say so; refusing to open would lose more.
				s.logf("segstore: wal replay: %d elements rejected (log/manifest disagreement)", rej)
			}
			s.logf("segstore: wal replay recovered %d unsealed elements", len(replay))
		}
		// Rotate immediately: the fresh log restates the replayed suffix as
		// a baseline and the old files are deleted, so recovery work is
		// bounded by the head regardless of crash history.
		if err := s.rotateWAL(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkConfigAgainstManifest rejects explicit config values that conflict
// with an existing store; zero values defer to the manifest.
func checkConfigAgainstManifest(cfg, man histburst.SketchParams) error {
	conflict := func(what string, got, want any) error {
		return fmt.Errorf("segstore: config %s %v conflicts with existing store (%v)", what, got, want)
	}
	if cfg.K != 0 && cfg.K != man.K {
		return conflict("K", cfg.K, man.K)
	}
	if cfg.Seed != 1 && cfg.Seed != man.Seed {
		return conflict("Seed", cfg.Seed, man.Seed)
	}
	if cfg.Gamma != 8 && cfg.Gamma != man.Gamma {
		return conflict("Gamma", cfg.Gamma, man.Gamma)
	}
	if cfg.D != 0 && cfg.D != man.D {
		return conflict("D", cfg.D, man.D)
	}
	if cfg.W != 0 && cfg.W != man.W {
		return conflict("W", cfg.W, man.W)
	}
	return nil
}

// verifySegment reads one manifest-referenced segment file and checks it
// against the manifest as far as its bytes allow: magic and CRC over the
// whole file, then the sketch parameters and element count its header
// carries. It returns the verified bytes; the summary inside them is decoded
// when something first needs it (Segment.detector). Referenced files were
// fsynced before the manifest named them, so a failure here is real damage,
// not a crash artifact — fail loudly.
func (s *Store) verifySegment(meta SegmentMeta) ([]byte, error) {
	path := filepath.Join(s.dir, meta.File)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("segstore: segment %d: %w", meta.ID, err)
	}
	h, err := histburst.Inspect(data)
	if err != nil {
		return nil, fmt.Errorf("segstore: segment %d: %s: %w", meta.ID, path, err)
	}
	if h.Params != meta.effectiveParams(s.params) {
		return nil, fmt.Errorf("segstore: segment %d: sketch parameters do not match manifest", meta.ID)
	}
	if h.N != meta.Elements {
		return nil, fmt.Errorf("segstore: segment %d: %d elements, manifest says %d",
			meta.ID, h.N, meta.Elements)
	}
	return data, nil
}

// sweepOrphans removes segment and temp files the manifest does not
// reference — debris of seals or compactions that crashed before (or
// deletions that crashed after) their manifest write. Only files this
// package creates are touched; anything else in the directory is left
// alone.
func (s *Store) sweepOrphans() error {
	v := s.view.Load()
	live := make(map[string]bool, len(v.segs)+len(v.quarantined))
	for _, g := range v.segs {
		live[g.meta.File] = true
	}
	// Quarantined files belong in quarantine/, but if a move failed they
	// may still sit in the root — they are evidence, never debris.
	for _, g := range v.quarantined {
		live[g.File] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.Contains(name, ".tmp-") &&
			(strings.HasPrefix(name, segFilePrefix) || strings.HasPrefix(name, ManifestName)):
			os.Remove(filepath.Join(s.dir, name)) //histburst:allow errdrop -- best-effort sweep of crash debris; a survivor is harmless
		case strings.HasPrefix(name, segFilePrefix) && strings.HasSuffix(name, segFileSuffix) && !live[name]:
			os.Remove(filepath.Join(s.dir, name)) //histburst:allow errdrop -- best-effort sweep of crash debris; a survivor is harmless
		}
	}
	return nil
}

const (
	segFilePrefix = "seg-"
	segFileSuffix = ".hbsk"
	// quarantineDir is the store-directory subfolder damaged segment files
	// are moved into (kept for forensics, never loaded).
	quarantineDir = "quarantine"
)

// finishQuarantineMoves relocates quarantined segment files still sitting
// in the store root — the manifest names a segment quarantined first, then
// the file moves, so a crash (or a fresh quarantine at open) can leave the
// move undone.
func (s *Store) finishQuarantineMoves() error {
	for _, meta := range s.view.Load().quarantined {
		if meta.File == "" {
			continue
		}
		src := filepath.Join(s.dir, meta.File)
		if _, err := os.Stat(src); err != nil {
			continue // already moved (or the damage took the file with it)
		}
		if err := os.MkdirAll(filepath.Join(s.dir, quarantineDir), 0o755); err != nil {
			return err
		}
		if err := os.Rename(src, filepath.Join(s.dir, quarantineDir, meta.File)); err != nil {
			return err
		}
	}
	atomicfile.SyncDir(s.dir)
	return nil
}

func segFileName(id uint64) string { return fmt.Sprintf("%s%016d%s", segFilePrefix, id, segFileSuffix) }
