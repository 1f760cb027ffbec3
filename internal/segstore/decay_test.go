package segstore

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"histburst"
	"histburst/internal/faultio"
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

// ingestWeeks streams n elements over span events into every given store,
// stepping event time by dt seconds, and returns per-event arrival times.
func ingestWeeks(t *testing.T, stores []*Store, n int, span uint64, dt int64) (arrivals map[uint64][]int64, maxT int64) {
	t.Helper()
	arrivals = make(map[uint64][]int64)
	tm := int64(0)
	for i := 0; i < n; i++ {
		e := uint64(i) % span
		for _, s := range stores {
			if err := s.Append(e, tm); err != nil {
				t.Fatalf("Append #%d: %v", i, err)
			}
		}
		arrivals[e] = append(arrivals[e], tm)
		tm += dt
	}
	return arrivals, tm - dt
}

// exactAt counts e's arrivals at or before t.
func exactAt(arrivals map[uint64][]int64, e uint64, t int64) float64 {
	n := 0
	for _, ts := range arrivals[e] {
		if ts <= t {
			n++
		}
	}
	return float64(n)
}

func TestDecayLongHorizon(t *testing.T) {
	// ~42 days of history at one element per 10 minutes: the first tier
	// boundary sits 3 days behind the frontier, the second 10 days behind,
	// so the bulk of the history decays while the recent tail stays at full
	// fidelity.
	const (
		n    = 6000
		span = 8
		dt   = 600
	)
	dir := t.TempDir()
	decayed := openStepped(t, dir, decayConfig(64))
	plainCfg := testConfig(64)
	plainCfg.CompactFanout = 2
	plain := openStepped(t, "", plainCfg)
	defer mustClose(t, plain)

	arrivals, maxT := ingestWeeks(t, []*Store{decayed, plain}, n, span, dt)
	// A genuine burst at the frontier — 64 extra arrivals of event 1 fed to
	// both stores — gives the bursty-event search a signal far above sketch
	// noise to agree on.
	for i := 0; i < 64; i++ {
		for _, s := range []*Store{decayed, plain} {
			if err := s.Append(1, maxT); err != nil {
				t.Fatal(err)
			}
		}
		arrivals[1] = append(arrivals[1], maxT)
	}
	if err := decayed.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	if err := plain.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	settle(t, decayed)
	settle(t, plain)
	segs := decayed.Segments()
	if !slices.ContainsFunc(segs, func(g SegmentInfo) bool { return g.Tier == 2 }) {
		t.Fatalf("nothing decayed to tier 2: %+v", segs)
	}
	if err := decayed.Err(); err != nil {
		t.Fatalf("background error: %v", err)
	}
	if decayed.N() != plain.N() {
		t.Fatalf("decay changed element accounting: %d vs %d", decayed.N(), plain.N())
	}

	// The tier table covers the ladder and the deep tiers carry the bulk of
	// the time span in a fraction of the bytes.
	tiers := decayed.Snapshot().Tiers()
	if len(tiers) < 2 {
		t.Fatalf("tier table %+v, want at least tier 0 plus a decayed tier", tiers)
	}
	for i := 1; i < len(tiers); i++ {
		if tiers[i].Tier <= tiers[i-1].Tier {
			t.Fatalf("tier table not ascending: %+v", tiers)
		}
		if tiers[i].Gamma <= tiers[i-1].Gamma {
			t.Fatalf("deeper tier does not widen gamma: %+v", tiers)
		}
	}
	var decayedSealed, plainSealed int
	for _, g := range segs {
		decayedSealed += g.Bytes
	}
	for _, g := range plain.Segments() {
		plainSealed += g.Bytes
	}
	if decayedSealed >= plainSealed/2 {
		t.Fatalf("decay saved too little: %d sealed bytes vs %d undecayed", decayedSealed, plainSealed)
	}

	// Recent history is bit-identical: for windows that start past every
	// decayed segment's span, decayed segments contribute exactly zero to
	// every burstiness row (their cell curves are flat past their
	// frontiers), so the cross-segment median matches the undecayed store's.
	tier1Age := decayConfig(64).DecayTiers[0].Age
	var decayedMaxT int64
	for _, g := range segs {
		if g.Tier > 0 && g.End > decayedMaxT {
			decayedMaxT = g.End
		}
	}
	if decayedMaxT == 0 {
		t.Fatal("no decayed segment found")
	}
	if decayedMaxT > maxT-tier1Age+1 {
		t.Fatalf("decay reached past the first tier boundary: decayed through %d, frontier %d", decayedMaxT, maxT)
	}
	// Bit-identity needs two things: windows entirely past every decayed
	// span (so decayed cells are flat and cancel per row), and query
	// instants that are the queried event's own feed instants — between
	// feeds, inter-segment gap interpolation legally differs between the
	// two stores' compaction groupings. τ = span·dt keeps qt−τ and qt−2τ
	// on the event's arrival grid.
	tau := int64(span) * dt
	for e := uint64(0); e < span; e++ {
		last := (int64(n-int(span)) + int64(e)) * dt // e's final periodic arrival
		for _, qt := range []int64{last, last - tau, last - 40*tau} {
			if qt-2*tau <= maxT-tier1Age {
				t.Fatalf("query window [%d, %d] reaches into decayable history", qt-2*tau, qt)
			}
			got, err := decayed.Snapshot().Burstiness(e, qt, tau)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Snapshot().Burstiness(e, qt, tau)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("recent burstiness diverged: event %d t=%d: %v vs undecayed %v", e, qt, got, want)
			}
		}
	}
	// Both stores surface exactly the injected burst: its signal (≈64) sits
	// far above the threshold, uniform background traffic far below it.
	gotEvents, err := decayed.Snapshot().BurstyEvents(maxT, 30, tau)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents, err := plain.Snapshot().BurstyEvents(maxT, 30, tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEvents) != 1 || gotEvents[0] != 1 {
		t.Fatalf("decayed store missed the recent burst: %v", gotEvents)
	}
	if len(wantEvents) != 1 || wantEvents[0] != 1 {
		t.Fatalf("undecayed store missed the recent burst: %v", wantEvents)
	}

	// Historical estimates stay inside the envelope actually in force at
	// the queried instant: est(t) ≥ F(t − Res) − Bound (the grid can lag by
	// one cell of true change, the sketch by the summed γ caps), and never
	// exceed the stream total.
	sn := decayed.Snapshot()
	total := float64(decayed.N())
	for e := uint64(0); e < span; e++ {
		for _, qt := range []int64{maxT / 8, maxT / 4, maxT / 2, 3 * maxT / 4} {
			env := sn.Envelope(qt)
			got := sn.CumulativeFrequency(e, qt)
			floor := exactAt(arrivals, e, qt-env.Resolution) - env.Bound
			if got < floor {
				t.Fatalf("event %d t=%d: estimate %.2f below envelope floor %.2f (env %+v)", e, qt, got, floor, env)
			}
			if got > total {
				t.Fatalf("event %d t=%d: estimate %.2f above stream total %.0f", e, qt, got, total)
			}
		}
	}

	// The envelope composes per time range: wide where history decayed,
	// full-fidelity where it has not, empty past the sealed frontier.
	oldEnv := sn.Envelope(maxT / 4)
	if oldEnv.Bound < decayConfig(64).DecayTiers[0].Gamma || oldEnv.Resolution < decayConfig(64).DecayTiers[0].Res {
		t.Fatalf("deep-history envelope %+v does not reflect the decay tier", oldEnv)
	}
	recentEnv := sn.Envelope(decayedMaxT + tier1Age)
	if recentEnv.Resolution != 1 {
		t.Fatalf("recent envelope %+v reports a coarsened grid", recentEnv)
	}
	if future := sn.Envelope(maxT + 1<<40); future.Components != 0 || future.Bound != 0 {
		t.Fatalf("past-frontier envelope %+v, want zero components (all curves exact)", future)
	}
	// Seal the head tail and let the store settle, pinning the final
	// generation for the reopen comparison.
	if err := decayed.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	settle(t, decayed)
	finalTiers := decayed.Snapshot().Tiers()
	fsn := decayed.Snapshot()
	type qkey struct {
		e uint64
		t int64
	}
	want := make(map[qkey]float64)
	for e := uint64(0); e < span; e++ {
		for _, qt := range []int64{maxT / 4, maxT / 2, maxT} {
			want[qkey{e, qt}] = fsn.CumulativeFrequency(e, qt)
		}
	}
	mustClose(t, decayed)

	// Reopen from the manifest: fidelity metadata round-trips, the
	// coarser detector files load against their per-segment parameters, and
	// queries answer identically.
	re := mustOpen(t, dir, Config{})
	defer mustClose(t, re)
	// A reopened segment holds its verified file bytes until a query touches
	// it, and Bytes says so: straight after Open the tier table matches in
	// everything but Bytes, and once the queries below (CumulativeFrequency
	// at maxT visits every segment) have made the store resident, in Bytes
	// too.
	compareTiers := func(when string, withBytes bool) {
		t.Helper()
		reTiers := re.Snapshot().Tiers()
		if len(reTiers) != len(finalTiers) {
			t.Fatalf("%s: reopen changed the tier table: %+v vs %+v", when, reTiers, finalTiers)
		}
		for i, want := range finalTiers {
			got := reTiers[i]
			if !withBytes {
				got.Bytes, want.Bytes = 0, 0
			}
			if got != want {
				t.Fatalf("%s: reopen changed tier %d: %+v vs %+v", when, i, got, want)
			}
		}
	}
	compareTiers("cold", false)
	rsn := re.Snapshot()
	for k, w := range want {
		if got := rsn.CumulativeFrequency(k.e, k.t); got != w {
			t.Fatalf("reopen changed estimate: event %d t=%d: %v vs %v", k.e, k.t, got, w)
		}
	}
	compareTiers("resident", true)
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

// buildDecayCrashFixture creates a store directory of three sealed segments
// old enough (relative to the frontier) that decay compacts and decays the
// first two, and harvests the final generation's bytes: every new segment
// file plus the manifest naming them.
func buildDecayCrashFixture(t *testing.T) (dir string, n int64, newFiles map[string][]byte, manData []byte) {
	t.Helper()
	cfg := testConfig(8)
	cfg.CompactFanout = 2
	cfg.DecayTiers = []DecayTier{{Age: 5000, Gamma: 8, W: 8, Res: 100}}
	work := t.TempDir()
	s := openStepped(t, work, cfg)
	defer mustClose(t, s)
	appendN(t, s, 24, 4, 0, 1000) // three seals spanning [0, 23000]
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	n = s.N()
	old := s.Segments()
	if len(old) != 3 {
		t.Fatalf("fixture expected 3 segments, got %d", len(old))
	}
	// The sealed generation is the fixture; real decay and compaction steps
	// after it harvest authentic bytes.
	dir = cloneDir(t, work)
	settle(t, s)
	man, err := LoadManifest(filepath.Join(work, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	oldNames := make(map[string]bool)
	for _, g := range old {
		oldNames[g.File] = true
	}
	newFiles = make(map[string][]byte)
	sawDecayed := false
	for _, g := range man.Segments {
		if g.Tier > 0 {
			sawDecayed = true
		}
		if oldNames[g.File] {
			continue
		}
		data, err := os.ReadFile(filepath.Join(work, g.File))
		if err != nil {
			t.Fatal(err)
		}
		newFiles[g.File] = data
	}
	if !sawDecayed || len(newFiles) == 0 {
		t.Fatalf("decay fixture left %+v", man.Segments)
	}
	return dir, n, newFiles, man.Encode()
}

func TestCrashDuringDecayManifestWriteRecoversEitherGeneration(t *testing.T) {
	dir, n, newFiles, manData := buildDecayCrashFixture(t)
	// The decayed segment files are in place (their writes precede the
	// manifest rewrite); the crash hits the manifest write at every
	// byte offset. Before the rename the three full-fidelity inputs serve;
	// after it the decayed generation does — with every element accounted
	// for either way.
	for step := 0; step < faultio.CrashSteps(manData); step++ {
		d := cloneDir(t, dir)
		for name, data := range newFiles {
			if err := os.WriteFile(filepath.Join(d, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := faultio.CrashAtomicWrite(d, ManifestName, manData, step); err != nil {
			t.Fatal(err)
		}
		s, err := Open(d, Config{})
		if err != nil {
			t.Fatalf("step %d: recovery failed: %v", step, err)
		}
		gotN := s.N()
		segs := s.Segments()
		if err := s.Close(); err != nil {
			t.Fatalf("step %d: close after recovery: %v", step, err)
		}
		if gotN != n {
			t.Fatalf("step %d: recovered N=%d, want %d", step, gotN, n)
		}
		decayedSegs := 0
		for _, g := range segs {
			if g.Tier > 0 {
				decayedSegs++
			}
		}
		switch {
		case len(segs) == 3 && decayedSegs == 0: // old generation intact
		case decayedSegs > 0: // decayed generation complete
		default:
			t.Fatalf("step %d: recovered %d segments (%d decayed); want the 3 inputs or a decayed set", step, len(segs), decayedSegs)
		}
	}
}

func TestCrashDuringDecaySegmentWriteRecoversOldGeneration(t *testing.T) {
	dir, n, newFiles, _ := buildDecayCrashFixture(t)
	// A crash at any prefix of a decayed segment file write: the manifest
	// still names the full-fidelity inputs, so recovery serves them and
	// sweeps the debris. Sample boundaries densely, the interior sparsely.
	for name, data := range newFiles {
		steps := faultio.CrashSteps(data)
		for step := 0; step < steps; step++ {
			if step > 48 && step < steps-48 && step%131 != 0 {
				continue
			}
			d := cloneDir(t, dir)
			left, err := faultio.CrashAtomicWrite(d, name, data, step)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(d, Config{})
			if err != nil {
				t.Fatalf("step %d: recovery failed: %v", step, err)
			}
			if got := s.N(); got != n {
				t.Fatalf("step %d: N = %d, want %d", step, got, n)
			}
			if got := len(s.Segments()); got != 3 {
				t.Fatalf("step %d: %d segments, want the 3 inputs", step, got)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(left); !os.IsNotExist(err) {
				t.Fatalf("step %d: crash debris %s survived recovery", step, filepath.Base(left))
			}
		}
	}
}

func TestEqualBoundarySegmentsDecayAlone(t *testing.T) {
	// A forced whole-head checkpoint followed by appends at the same
	// timestamp creates segments sharing a boundary instant. The downsample
	// kernel cannot fold them into one part sequence; the decay scan must
	// split there — each side still decays, just separately — and never
	// wedge the store.
	cfg := testConfig(-1) // seal only on checkpoint: exactly two sealed segments
	cfg.CompactFanout = 2
	cfg.DecayTiers = []DecayTier{{Age: 10, Gamma: 8, W: 8, Res: 4}}
	s := openStepped(t, t.TempDir(), cfg)
	defer mustClose(t, s)
	for _, tm := range []int64{1, 2, 3} {
		if err := s.Append(1, tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	for _, tm := range []int64{3, 3, 4} { // shares boundary instant 3
		if err := s.Append(2, tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	// The decay scan must split at the shared instant: two runs of one
	// segment each, never one run of two (the kernel would reject it).
	runs, _ := s.pickDecayRuns(s.view.Load().segs, 1000)
	if len(runs) != 2 || len(runs[0]) != 1 || len(runs[1]) != 1 {
		shape := make([]int, len(runs))
		for i, r := range runs {
			shape[i] = len(r)
		}
		t.Fatalf("pickDecayRuns split shape %v, want [1 1]", shape)
	}
	// Age both segments past the tier with a head-only append and settle
	// against the advanced frontier. Each side decays alone; a later step
	// may merge the two decayed outputs, but no sealed full-fidelity data
	// may survive past the tier age.
	if err := s.Append(3, 1000); err != nil {
		t.Fatal(err)
	}
	settle(t, s)
	segs := s.Segments()
	if err := s.Err(); err != nil {
		t.Fatalf("background error: %v", err)
	}
	var decayedElems int64
	for _, g := range segs {
		if g.End <= 4 && g.Tier != 1 {
			t.Fatalf("aged segment stuck at full fidelity: %+v", segs)
		}
		if g.Tier == 1 {
			decayedElems += g.Elements
		}
	}
	if decayedElems != 6 {
		t.Fatalf("decayed tier holds %d elements, want all 6: %+v", decayedElems, segs)
	}
	if got := s.Snapshot().CumulativeFrequency(1, 2000); got < 3 {
		t.Fatalf("F̃(1) after split decay = %v, want ≥ 3", got)
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
	// Ages are measured against the frontier the head recovered; the days
	// come from the directory's own description of them.
	type day struct {
		minT, maxT int64
		due        int
	}
	var days []day
	for d := int64(0); d < 13; d++ {
		minT := coldOrigin + d*coldDay
		maxT := minT + 47*(coldDay/48)
		days = append(days, day{minT, maxT, s.targetTier(frontier - maxT)})
	}
	if days[0].due != 2 || days[12].due != 0 {
		t.Fatalf("fixture: oldest day due tier %d, newest %d, want 2 and 0", days[0].due, days[12].due)
	}
	settle(t, s)
	segs := s.Segments()
	if len(segs) >= 13 {
		t.Fatalf("nothing merged or decayed: %d segments", len(segs))
	}
	for i, d := range days {
		found := false
		for _, g := range segs {
			if g.Start <= d.minT && d.maxT <= g.End {
				found = true
				if g.Tier < d.due {
					t.Fatalf("day %d is due tier %d but sits in segment %d [%d, %d] at tier %d",
						i, d.due, g.ID, g.Start, g.End, g.Tier)
				}
			}
		}
		if !found {
			t.Fatalf("day %d [%d, %d] is covered by no segment: %+v", i, d.minT, d.maxT, segs)
		}
	}
}
