package segstore

import (
	"slices"
	"testing"

	"histburst"
)

// The decay suite drives multi-week event-time histories through the full
// seal → compact → decay lifecycle and pins the three promises of
// time-decayed compaction: recent history answers bit-identically to an
// undecayed store, decayed history stays inside its reported (wider)
// envelope, and the retained footprint shrinks.

// decayRunNaive is the retained naive twin: clone every input and downsample
// the clones, proving by construction that the fast path's in-place reads
// leave the live sources untouched. Output estimates are bit-identical.
func (s *Store) decayRunNaive(run []*Segment, target int) (*Segment, error) {
	tier := s.tiers[target-1]
	dets, err := runDetectors(run)
	if err != nil {
		return nil, err
	}
	for i, det := range dets {
		c, err := det.Clone()
		if err != nil {
			return nil, err
		}
		c.Finish()
		dets[i] = c
	}
	out, err := histburst.DownsampleDetectors(dets, tier.Gamma, tier.Res, tier.W)
	if err != nil {
		return nil, err
	}
	return residentSegment(decayMeta(run, target, tier), out), nil
}

// decayConfig is testConfig plus a two-tier decay ladder over a multi-week
// event-time span (timestamps are seconds).
func decayConfig(sealEvents int64) Config {
	cfg := testConfig(sealEvents)
	cfg.CompactFanout = 2
	cfg.DecayTiers = []DecayTier{
		{Age: 3 * 86400, Gamma: 8, W: 8, Res: 3600},    // 3 days: γ 2→8, w 32→8, hourly grid
		{Age: 10 * 86400, Gamma: 32, W: 4, Res: 43200}, // 10 days: γ→32, w→4, half-day grid
	}
	return cfg
}

func TestDecayRunMatchesNaive(t *testing.T) {
	// Tier ages far beyond the stream span keep the background pass idle, so
	// the run picked with a synthetic far-future frontier is stable and the
	// twins can be compared deterministically.
	cfg := testConfig(16)
	cfg.CompactFanout = 2
	cfg.DecayTiers = []DecayTier{{Age: 1 << 40, Gamma: 8, W: 8, Res: 16}}
	s := mustOpen(t, "", cfg)
	defer mustClose(t, s)
	last := appendN(t, s, 96, 8, 0, 3)
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	segs := s.view.Load().segs
	if len(segs) < 2 {
		t.Fatalf("fixture sealed %d segments, want at least 2", len(segs))
	}
	runs, targets := s.pickDecayRuns(segs, last+1<<41)
	if len(runs) == 0 {
		t.Fatal("far-future frontier picked no decay runs")
	}
	for i, run := range runs {
		fast, err := s.decayRun(run, targets[i])
		if err != nil {
			t.Fatalf("decayRun: %v", err)
		}
		naive, err := s.decayRunNaive(run, targets[i])
		if err != nil {
			t.Fatalf("decayRunNaive: %v", err)
		}
		if fast.meta != naive.meta {
			t.Fatalf("twin metas diverge: %+v vs %+v", fast.meta, naive.meta)
		}
		if fast.meta.Tier != targets[i] || fast.meta.Gamma != 8 || fast.meta.W != 8 || fast.meta.Res != 16 {
			t.Fatalf("decayed meta %+v does not carry the tier fidelity", fast.meta)
		}
		for e := uint64(0); e < 8; e++ {
			for qt := int64(0); qt <= last+32; qt += 7 {
				if got, want := fast.detector().CumulativeFrequency(e, qt), naive.detector().CumulativeFrequency(e, qt); got != want {
					t.Fatalf("twin estimates diverge: event %d t=%d: %v vs %v", e, qt, got, want)
				}
			}
		}
		// The fast path read the live sources in place; prove it changed
		// nothing by re-running it.
		again, err := s.decayRun(run, targets[i])
		if err != nil {
			t.Fatal(err)
		}
		for e := uint64(0); e < 8; e++ {
			if got, want := again.detector().CumulativeFrequency(e, last), fast.detector().CumulativeFrequency(e, last); got != want {
				t.Fatalf("re-running decayRun changed results: %v vs %v", got, want)
			}
		}
	}
}

func TestResolveDecayTiers(t *testing.T) {
	base := histburst.SketchParams{K: 64, Gamma: 2, Seed: 7, D: 3, W: 32}
	// Defaults fill from the previous tier: W and Res carry over, Gamma
	// lands on the folded-error minimum.
	tiers, err := resolveDecayTiers([]DecayTier{
		{Age: 100, W: 8},
		{Age: 200, Res: 60},
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	if tiers[0].Gamma != 8 || tiers[0].Res != 1 {
		t.Fatalf("tier 0 resolved to %+v, want γ=8 (32/8×2) res=1", tiers[0])
	}
	if tiers[1].W != 8 || tiers[1].Gamma != 8 || tiers[1].Res != 60 {
		t.Fatalf("tier 1 resolved to %+v, want w=8 γ=8 res=60", tiers[1])
	}
	for _, bad := range [][]DecayTier{
		{{Age: 0, Gamma: 8}},                                                  // age must be positive
		{{Age: 200, Gamma: 8}, {Age: 200, Gamma: 8}},                          // ages strictly ascending
		{{Age: 100, Gamma: 8, W: 7}},                                          // width must divide
		{{Age: 100, Gamma: 3, W: 8}},                                          // gamma below 32/8 × 2
		{{Age: 100, Gamma: 8, W: 8, Res: 60}, {Age: 200, Gamma: 32, Res: 30}}, // res must not shrink
	} {
		if _, err := resolveDecayTiers(bad, base); err == nil {
			t.Fatalf("accepted invalid tier ladder %+v", bad)
		}
	}
	// Decay rides the compaction step; configuring tiers with
	// compaction disabled must fail loudly rather than never decay.
	cfg := testConfig(0)
	cfg.CompactFanout = -1
	cfg.DecayTiers = []DecayTier{{Age: 100, Gamma: 8}}
	if _, err := Open("", cfg); err == nil {
		t.Fatal("Open accepted decay tiers with compaction disabled")
	}
}

// TestDecayBeforeCompaction: a segment's tier is decided by its own age, not
// by the run the size compactor would have merged it into. The store opens
// on thirteen one-day full-fidelity segments with both jobs pending; merging
// first would fold aged days in with younger ones, and the merged segment —
// as old as its youngest member — would hold them below the tier they are
// due. Every original day must end at least as deep as its own age demands.
func TestDecayBeforeCompaction(t *testing.T) {
	dir, frontier := buildColdDir(t, 13, 48)
	cfg := coldConfig()
	cfg.CompactFanout = 4
	cfg.DecayTiers = []DecayTier{
		{Age: 3 * coldDay, Gamma: 8, W: 8, Res: 3600},
		{Age: 8 * coldDay, Gamma: 32, W: 4, Res: 43200},
	}
	s := openStepped(t, dir, cfg)
	defer mustClose(t, s)
	settle(t, s)
	segs := s.Segments()
	// Ages are measured against the frontier the head recovered; the days
	// come from the directory's own description of them.
	for d := int64(0); d < 13; d++ {
		minT := coldOrigin + d*coldDay
		maxT := minT + 47*(coldDay/48)
		due := s.targetTier(frontier - maxT)
		if d == 0 && due != 2 || d == 12 && due != 0 {
			t.Fatalf("fixture: day %d due tier %d, want the oldest at 2 and the newest at 0", d, due)
		}
		i := slices.IndexFunc(segs, func(g SegmentInfo) bool { return g.Start <= minT && maxT <= g.End })
		if i < 0 {
			t.Fatalf("day %d [%d, %d] is covered by no segment: %+v", d, minT, maxT, segs)
		}
		if g := segs[i]; g.Tier < due {
			t.Fatalf("day %d is due tier %d but sits in segment %d [%d, %d] at tier %d", d, due, g.ID, g.Start, g.End, g.Tier)
		}
	}
}
