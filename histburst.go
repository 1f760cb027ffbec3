// Package histburst detects bursty events throughout the history of an
// event stream using the persistent burstiness estimation sketches of
// "Bursty Event Detection Throughout Histories" (Paul, Peng, Li — ICDE
// 2019).
//
// Burstiness is the acceleration of an event's incoming rate: with F_e(t)
// the cumulative number of mentions of event e up to time t and τ a burst
// span chosen at query time,
//
//	b_e(t) = F_e(t) − 2·F_e(t−τ) + F_e(t−2τ).
//
// A Detector ingests (event id, timestamp) elements once, in time order,
// and afterwards answers — for any historical instant, without storing the
// stream — the paper's three query types:
//
//	POINT        Burstiness(e, t, τ)          how bursty was e at time t?
//	BURSTY TIME  BurstyTimes(e, θ, τ)         when was e bursty?
//	BURSTY EVENT BurstyEvents(t, θ, τ)        what was bursty at time t?
//
// Internally each event's cumulative-frequency curve is approximated by a
// PBE-2 persistent burstiness estimator (online piecewise-linear
// approximation with one-sided error cap γ, so time partitions combine
// exactly) sharded across a Count-Min layout (CM-PBE) so the space is
// sublinear in both the stream length and the number of events, plus a
// dyadic decomposition over the event-id space for sub-linear bursty-event
// search. All estimates are approximate with two-sided guarantees; see the
// option docs for the tuning knobs.
package histburst

import (
	"fmt"
	"math/bits"
	"runtime"

	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// TimeRange is a half-open interval [Start, End) of time instants; its
// Contains reports whether an instant lies in it.
type TimeRange = pbe.TimeRange

// EventBurstiness pairs an event id with its estimated burstiness.
type EventBurstiness = dyadic.EventScore

// config collects the options for a Detector.
type config struct {
	seed           int64
	d, w           int
	epsilon, delta float64 // set when d == -1 (WithErrorBounds)
	gamma          float64
}

// defaults is the configuration no option has changed.
var defaults = config{seed: 1, d: 5, w: 272, gamma: 8}

// Option configures a Detector.
type Option func(*config)

// WithSeed fixes the hash seed; detectors with equal seeds and options are
// deterministic replicas. The default seed is 1.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithSketchDims sets the Count-Min layout explicitly: d rows, w cells per
// row. The default is d=5, w=272 (≈ ε=0.01, δ=0.01).
func WithSketchDims(d, w int) Option {
	return func(c *config) { c.d, c.w = d, w }
}

// WithErrorBounds sets the Count-Min layout from the standard guarantees:
// the collision term of a frequency estimate stays below ε·N with
// probability 1−δ. d = ⌈ln 1/δ⌉, w = ⌈e/ε⌉.
func WithErrorBounds(epsilon, delta float64) Option {
	return func(c *config) {
		// Deliberately unvalidated here; New validates via cmpbe.ErrorDims.
		c.d, c.w = -1, -1
		c.epsilon, c.delta = epsilon, delta
	}
}

// WithPBE2 sets the PBE-2 cells' error cap gamma: every frequency estimate
// stays within [F−γ, F] and every burstiness estimate within 4γ of the
// truth, per summarized stream (Section III-B). The default is γ = 8. The
// cap is that of the cells that answer; the event index's levels from height
// 4 up, which only steer BurstyEvents and TopBursty, are summarized under 4γ.
func WithPBE2(gamma float64) Option {
	return func(c *config) { c.gamma = gamma }
}

// Detector answers historical burstiness queries over a mixed event stream.
//
// It is not safe for concurrent use while appending — Append, and the first
// read after one, mutate it — so wrap a detector that is still taking
// arrivals in a mutex, or shard by stream. After Finish and until the next
// Append any number of goroutines may query, Save or Clone it.
type Detector struct {
	k    uint64
	cfg  config        // resolved configuration, kept for serialization
	tree *dyadic.Tree  // the event index
	base *cmpbe.Sketch // its leaf level, the summary that answers

	// pending holds clamped arrivals the index has not taken yet: Append
	// hands them to the tree pendingCap at a time (dyadic.Tree.AppendBatch),
	// every reader of the summary settles them first, and Finish releases
	// the buffer, so finished, loaded and merged detectors carry none.
	pending []stream.Element

	counters
}

// counters is what a detector counts of its arrivals beside the summary.
type counters struct {
	n          int64
	minT       int64
	maxT       int64
	lastT      int64
	started    bool
	outOfOrder int64
}

// New creates a Detector over the event-id space [0, k). k is rounded up to
// a power of two for the dyadic index.
func New(k uint64, opts ...Option) (*Detector, error) {
	if k == 0 {
		return nil, fmt.Errorf("histburst: event space must be non-empty")
	}
	c := defaults
	for _, o := range opts {
		o(&c)
	}
	if c.d == -1 { // WithErrorBounds path
		var err error
		if c.d, c.w, err = cmpbe.ErrorDims(c.epsilon, c.delta); err != nil {
			return nil, fmt.Errorf("histburst: %w", err)
		}
		// The bounds are fully expressed by the resolved dimensions; clear
		// them so detectors round-trip through Save/Load (which does not
		// persist them) with configurations that still compare equal for
		// MergeAppend.
		c.epsilon, c.delta = 0, 0
	}
	if c.d <= 0 || c.w <= 0 {
		return nil, fmt.Errorf("histburst: sketch dimensions must be positive, got d=%d w=%d", c.d, c.w)
	}
	det := &Detector{k: k, cfg: c}
	// The summary that answers (height 0 of the event index) and the index's
	// few-id levels just above it are under γ; the levels from height 4 up,
	// which only decide where BurstyEvents and TopBursty descend, under
	// dyadic.SteerGamma — which DecodeTree and DownsampleTrees ask too, so
	// build, load and decay cannot disagree about a level's γ.
	levels := dyadic.CMPBELevels(c.d, c.w, c.seed, c.gamma, dyadic.SteerGamma(dyadic.SteerHeight, c.gamma))
	tree, err := dyadic.New(k, levels)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	det.setTree(tree)
	return det, nil
}

// setTree installs an event index whose levels CMPBELevels built, and its
// leaf level as the summary that answers.
func (d *Detector) setTree(t *dyadic.Tree) {
	d.tree = t
	d.base = t.Level(0).(*cmpbe.Sketch)
}

// K returns the detector's (rounded) event-id space size.
func (d *Detector) K() uint64 { return roundPow2(d.k) }

// SketchParams is the exported, replica-complete description of a
// detector's configuration: two detectors built from equal SketchParams are
// deterministic replicas whose time-disjoint partitions MergeAppend cleanly.
// The segmented timeline store persists these in its manifest so recovered
// segments are guaranteed config-compatible with future seals.
type SketchParams struct {
	K     uint64  // event-id space (pre-rounding)
	Seed  int64   // hash seed
	D, W  int     // Count-Min rows × cells
	Gamma float64 // PBE-2 error cap
}

// Params returns the detector's sketch parameters.
func (d *Detector) Params() SketchParams {
	c := d.cfg
	return SketchParams{K: d.k, Seed: c.seed, D: c.d, W: c.w, Gamma: c.gamma}
}

// NewFromParams builds an empty detector from exported parameters; the
// result is config-compatible (MergeAppend, segment combination) with every
// detector whose Params compare equal. D and W of zero select the library
// default layout.
func NewFromParams(p SketchParams) (*Detector, error) {
	opts := []Option{WithSeed(p.Seed), WithPBE2(p.Gamma)}
	if p.D != 0 || p.W != 0 {
		opts = append(opts, WithSketchDims(p.D, p.W))
	}
	return New(p.K, opts...)
}

// pendingCap is how many arrivals Append collects before the index takes
// them in one level-major pass: large enough that a level's cells are reused
// many times per pass and the fork-join is paid once per few milliseconds of
// work, small enough (64 KiB) that the chunk itself stays cached across the
// levels.
const pendingCap = 4096

// Append ingests one element. Elements must arrive in non-decreasing time
// order; a timestamp below the frontier is clamped to it and counted in
// OutOfOrder. Event ids at or above K are folded into the space by modulo.
func (d *Detector) Append(e uint64, t int64) {
	if d.stage(e, t) {
		d.flush()
	}
}

// stage clamps and counts one arrival and buffers it for the index, reporting
// whether the chunk is now full.
func (d *Detector) stage(e uint64, t int64) (full bool) {
	if d.started && t < d.lastT {
		d.outOfOrder++
		t = d.lastT
	}
	if !d.started || t < d.minT {
		d.minT = t
	}
	d.lastT = t
	d.started = true
	d.n++
	if t > d.maxT {
		d.maxT = t
	}
	if d.pending == nil {
		d.pending = make([]stream.Element, 0, pendingCap)
	}
	d.pending = append(d.pending, stream.Element{Event: e, Time: t})
	return len(d.pending) == pendingCap
}

// flush feeds the pending chunk to every level of the index on at most
// GOMAXPROCS goroutines.
func (d *Detector) flush() {
	d.tree.AppendBatch(d.pending, runtime.GOMAXPROCS(0))
	d.pending = d.pending[:0]
}

// settle makes the summary reflect every Append so far. Every method that
// reads or hands out the summary calls it first; on a finished detector the
// chunk is empty and nothing is written, which is what keeps concurrent
// queries of one race-free.
func (d *Detector) settle() {
	if len(d.pending) != 0 {
		d.flush()
	}
}

// Finish flushes internal buffers; call it after the last Append (further
// Appends are allowed and start new buffers). Queries before Finish are
// valid and include all ingested data. Idempotent.
func (d *Detector) Finish() {
	if d.pending != nil { // a finished detector is left unwritten: Save and Clone run beside queries
		d.settle()
		d.pending = nil
	}
	d.tree.Finish()
}

// N returns the number of ingested elements.
func (d *Detector) N() int64 { return d.n }

// MinTime returns the smallest timestamp ingested (zero when empty).
func (d *Detector) MinTime() int64 { return d.minT }

// MaxTime returns the largest timestamp ingested (the stream horizon T).
func (d *Detector) MaxTime() int64 { return d.maxT }

// OutOfOrder returns how many elements were clamped to the time frontier.
func (d *Detector) OutOfOrder() int64 { return d.outOfOrder }

// CumulativeFrequency returns the estimate F̃_e(t) of how many times event e
// was mentioned up to and including time t.
func (d *Detector) CumulativeFrequency(e uint64, t int64) float64 {
	d.settle()
	return d.base.EstimateF(e%d.K(), t)
}

// EventIndex returns the detector's event index, read-only: the segmented
// timeline store sums its segments' levels, each a *cmpbe.Sketch, through
// cmpbe.Rows — the rule a Detector answers by.
func (d *Detector) EventIndex() *dyadic.Tree {
	d.settle()
	return d.tree
}

// Burstiness answers the POINT QUERY q(e, t, τ): the estimated acceleration
// of e's incoming rate at time t over burst span tau > 0.
func (d *Detector) Burstiness(e uint64, t, tau int64) (float64, error) {
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return 0, fmt.Errorf("histburst: %w", err)
	}
	return d.BurstinessOver(e, t, sp), nil
}

// BurstinessOver is Burstiness over a span already built.
func (d *Detector) BurstinessOver(e uint64, t int64, sp pbe.Span) float64 {
	d.settle()
	return d.base.Burstiness(e%d.K(), t, sp)
}

// BurstyTimes answers the BURSTY TIME QUERY q(e, θ, τ): the maximal time
// ranges within [0, MaxTime] where e's estimated burstiness reaches theta.
// Cost is linear in the summary size, not the stream size.
func (d *Detector) BurstyTimes(e uint64, theta float64, tau int64) ([]TimeRange, error) {
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	return d.BurstyTimesOver(e, theta, sp)
}

// BurstyTimesOver is BurstyTimes over a span already built.
func (d *Detector) BurstyTimesOver(e uint64, theta float64, sp pbe.Span) ([]TimeRange, error) {
	if err := pbe.CheckTimesTheta(theta); err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	d.settle()
	return d.base.BurstyTimes(e%d.K(), theta, sp), nil
}

// BurstyEvents answers the BURSTY EVENT QUERY q(t, θ, τ): all event ids
// whose estimated burstiness at time t reaches theta (> 0), found by the
// pruned dyadic search — typically O(log K) point queries rather than K —
// on the caller's goroutine.
func (d *Detector) BurstyEvents(t int64, theta float64, tau int64) ([]uint64, error) {
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	d.settle()
	return prefixed(d.tree.BurstyEventIDs(t, theta, sp, nil))
}

// BurstyEventsOver is BurstyEvents over a span already built, each id with
// the burstiness the search found there: Burstiness's answer at (e, t, τ).
func (d *Detector) BurstyEventsOver(t int64, theta float64, sp pbe.Span) ([]EventBurstiness, error) {
	d.settle()
	return prefixed(d.tree.BurstyEvents(t, theta, sp, nil))
}

// TopBursty returns up to k events with the largest estimated burstiness at
// time t (descending), via best-first search over the dyadic index —
// typically far fewer point queries than ranking all K events.
func (d *Detector) TopBursty(t int64, k int, tau int64) ([]EventBurstiness, error) {
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	return d.TopBurstyOver(t, k, sp)
}

// TopBurstyOver is TopBursty over a span already built.
func (d *Detector) TopBurstyOver(t int64, k int, sp pbe.Span) ([]EventBurstiness, error) {
	d.settle()
	return prefixed(d.tree.TopBursty(t, k, sp, nil))
}

// prefixed names the package in a search's refusal.
func prefixed[T any](out T, err error) (T, error) {
	if err != nil {
		return out, fmt.Errorf("histburst: %w", err)
	}
	return out, nil
}

// Bytes returns the detector's summary footprint in bytes.
func (d *Detector) Bytes() int {
	d.settle()
	return d.tree.Bytes()
}

func roundPow2(k uint64) uint64 {
	// Branch-free and safe for any input: the old doubling loop never
	// terminated for k > 2⁶³ (reachable only from corrupt files, which
	// Load now rejects, but an infinite loop is the wrong failure mode).
	if k&(k-1) == 0 {
		return k
	}
	return 1 << (64 - bits.LeadingZeros64(k))
}
