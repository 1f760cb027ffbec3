// Package pbe2 implements PBE-2 (paper Section III-B): persistent
// burstiness estimation without buffering.
//
// PBE-2 approximates the cumulative-frequency staircase F(t) with a
// piecewise-linear curve F̃ satisfying F(t) − γ ≤ F̃(t) ≤ F(t) at every
// instant, for a user-chosen error cap γ. The construction is fully online:
// in the (slope a, intercept b) parameter plane it maintains the convex
// feasible region of all lines that cut through every frequency range
// (t_j, [F(t_j)−γ, F(t_j)]) seen since the current segment started. Each new
// corner adds two half-plane constraints (equation 5); when the region
// becomes empty, a line is chosen from the previous region, the segment is
// closed (Algorithm 2), and a fresh region starts.
//
// Per Section III-B the corner set is "doubled": for every staircase corner
// p_i the point just before the rise, (t_i − 1, F(t_{i−1})), is also
// constrained, which pins the flat run leading into every jump and bounds
// the error across wide gaps. Lemma 4 then gives |b̃(t) − b(t)| ≤ 4γ for
// every t and τ.
//
// The window machinery — region seeding, clipping, closing — is one engine
// (region, in region.go) shared by online construction and by
// downsampling. It works in coordinates local to the open window and skips
// constraints the region already satisfies; see the region type for why
// absolute coordinates are not an option. A closed segment keeps that local
// form — its value at Start and its slope — as a float32 slope and a value
// on a grid of 2⁻⁸ count when a line of it lies inside the window's
// feasible region (see lineForm), in columns packed at the width each
// field's values need (see column.go).
package pbe2

import (
	"fmt"
	"math"
)

// Segment is one piece of the piecewise-linear approximation in the local
// form of the window it closed: the line through Y at Start with slope A,
// in effect on [Start, End] (inclusive). segVal evaluates it.
type Segment struct {
	A, Y       float64
	Start, End int64
}

// The forms in which a cell stores a closed segment (lineForm): its value
// at Start on the grid, as a float64, or the segment escaped whole to the
// wide form. The cell block writes each record in the form its cell holds
// the segment in.
const (
	narrowValue  = iota // a multiple of 2⁻⁸ count
	floatValue          // a float64
	escapedValue        // with the slope, in the wide form
)

// yUnit is the number of grid units in one count.
const yUnit = 256

// lineForm returns the form in which a cell that holds float64 values or
// not (float), and has escaped e of its i segments, stores the next: of
// slope a, and y at Start. A window closes on a line of the 2⁻⁸ grid when
// one lies inside its feasible region (region.close), which is nearly
// always. A slope no float32 holds escapes the segment whole. A cell
// holding float64 values keeps to them. Otherwise a value on the grid —
// any within ±2⁵⁵ counts — stays there, and one past that reach takes the
// cell to float64. A value off the grid within it, a window thinner than
// 2⁻⁸ count, escapes while the cell has escaped fewer than a sixth of its
// segments, or fewer than three: an escape costs 16 bytes where float64
// values cost some 5 a segment more than grid ones, and a cell that meets
// one thin window seldom meets many.
//
//histburst:noalloc
func lineForm(a, y float64, float bool, e, i int) int {
	switch k := y * yUnit; {
	case float64(float32(a)) != a:
		return escapedValue
	case float, k < -(1<<63) || k >= 1<<63:
		return floatValue
	case k == math.Trunc(k):
		return narrowValue
	case 6*e < max(i, 18):
		return escapedValue
	}
	return floatValue
}

// wideSeg is an escaped segment's line: a float64 pair in the local form.
type wideSeg struct {
	a, y float64
}

// wide is what a cell holds only once a segment escapes, behind a pointer
// that stays nil until then: the escaped lines, indexed by their segments'
// y fields.
type wide struct {
	segs []wideSeg
}

// widened returns the wide form, allocating it on first need.
func (s *Summary) widened() *wide {
	if s.wide == nil {
		s.wide = new(wide)
	}
	return s.wide
}

// escaped returns how many segments the cell has escaped whole.
//
//histburst:noalloc
func (s *Summary) escaped() int {
	if s.wide == nil {
		return 0
	}
	return len(s.wide.segs)
}

// Summary is a sealed PBE-2 summary: the closed segments of F̃ and the
// exact count at its frontier. Merge, downsample and the cell block read
// summaries and never write them; a Builder hands out its own through Seal.
type Summary struct {
	gamma float64

	// Closed segments: n of them, packed with room for room (see
	// column.go) — the start offsets from firstStart, the search key, then
	// from byte rowAt a row a segment of its length, its value at Start and
	// its float32 slope's top bytes — each field at sw, lw, yw and aw bytes,
	// the width its widest value takes, the grid values less yBase, or
	// float64 values when float. The rare escaped line goes to the wide
	// form, nil until one occurs (see wide). firstStart/lastStart are the
	// ends of the starts, so full-range searches resolve boundary cases
	// without touching the columns.
	cols       []byte
	n, room    int
	rowAt      int
	yBase      int64
	sw, lw, yw uint8
	stride     uint8 // lw + yw + aw, the slope's width (see aw)
	aSh        uint8 // 32 − 8·aw, the bits a slope field sits below its float32's top
	yAt, ySh   uint8 // where a y field's load starts in its row, and the field's bits into it (see yAt)
	float      bool
	wide       *wide
	firstStart int64
	lastStart  int64
	// invSpan is (segments−1)/(lastStart−firstStart), the slope of the
	// interpolation guess in searchFull, precomputed so the query path
	// multiplies instead of divides.
	invSpan float64
	// headLow is the smallest t the closed segments do not answer: the
	// frontier (MaxInt64 when nothing was counted), or, while a Builder's
	// window is open, that window's first instant. The query path dispatches
	// on this one comparison.
	headLow int64

	count      int64 // arrivals
	lastT      int64 // frontier: the time of the last arrival
	prevF      int64 // arrivals before the corner at lastT
	outOfOrder int64
}

// summary is Summary under an unexported name, so that the Builder embedding
// it promotes its readers without exposing the field: outside this package
// a Builder's summary is reached only through Seal.
type summary = Summary

// Builder maintains a PBE-2 summary online: the Summary of what it has
// closed, and the feasible region of its open window. A sealed Builder — one
// that never counted an arrival, or whose last call was Finish — has no
// window; its first Append after that opens one. The window pointer comes
// first, beside the fields every query reads, so that loading it touches no
// cache line the query would not.
type Builder struct {
	win *region
	summary
}

// New creates a PBE-2 builder with error cap gamma ≥ 1.
func New(gamma float64) (*Builder, error) {
	if err := CheckGamma(gamma); err != nil {
		return nil, err
	}
	b := new(Builder)
	b.reset(gamma)
	return b, nil
}

// NewCells returns n empty builders under error cap gamma ≥ 1 in one array:
// the cells of a sketch level, validated once.
func NewCells(n int, gamma float64) ([]Builder, error) {
	if err := CheckGamma(gamma); err != nil {
		return nil, err
	}
	cells := make([]Builder, n)
	for i := range cells {
		cells[i].reset(gamma)
	}
	return cells, nil
}

// reset makes b the empty builder under gamma, writing it in place.
func (b *Builder) reset(gamma float64) {
	*b = Builder{summary: Summary{gamma: gamma, headLow: math.MaxInt64}}
}

// CheckGamma refuses an error cap no builder accepts: below 1, NaN or
// infinite.
func CheckGamma(gamma float64) error {
	if gamma < 1 || math.IsNaN(gamma) || math.IsInf(gamma, 0) {
		return fmt.Errorf("pbe2: gamma must be at least 1, got %v", gamma)
	}
	return nil
}

// updateHeadLow recomputes the head dispatch bound; call after any mutation
// of the open state. The live-head cases of Estimate are, in order: exact
// count at t ≥ lastT, the open region's line at t ≥ winStart, a single
// pending constraint at t ≥ winStart — and winStart ≤ lastT whenever the
// builder is at rest, so the earliest head-answerable instant is winStart
// when a window is open and lastT otherwise.
func (b *Builder) updateHeadLow() {
	switch {
	case b.count == 0:
		b.headLow = math.MaxInt64
	case b.win != nil && (b.win.open || b.win.pending):
		b.headLow = b.win.winStart
	default:
		b.headLow = b.lastT
	}
}

// Gamma returns the configured error cap.
func (s *Summary) Gamma() float64 { return s.gamma }

// Append ingests one arrival at time t. Out-of-order arrivals are clamped
// to the frontier and counted.
func (b *Builder) Append(t int64) {
	if b.count == 0 {
		b.count = 1
		b.lastT = t
		b.prevF = 0
		// Pin the instant just before the first rise: F is 0 there. Only
		// useful when it doesn't precede time zero's history — it's a
		// virtual constraint on the same staircase, always valid.
		b.feed(t-1, 0)
		b.updateHeadLow()
		return
	}
	if t < b.lastT {
		b.outOfOrder++
		t = b.lastT
	}
	open := b.win != nil
	if open && t == b.lastT {
		b.count++
		return
	}
	// Time advances, or a sealed summary reopens: seal the open corner (a
	// sealed one was fed by Finish), then record the flat run up to t — the
	// "doubled" point.
	if open {
		b.feed(b.lastT, b.count)
	}
	if t > b.lastT+1 {
		b.feed(t-1, b.count)
	}
	b.prevF = b.count
	b.count++
	b.lastT = t
	b.window()
	b.updateHeadLow()
}

// Finish seals the open corner, closes the final segment and clips the
// segment columns to their length. Idempotent — a Finish on a sealed
// builder writes nothing, so it is safe beside lock-free readers; Append may
// be called afterwards.
func (b *Builder) Finish() {
	if b.win == nil {
		return
	}
	b.finishWindow()
	b.clip()
}

// finishWindow seals the open corner, closes the final segment and puts the
// builder at rest, its columns as they are: Finish clips them, Lay lays
// them with the rest of their level.
func (b *Builder) finishWindow() {
	b.feed(b.lastT, b.count)
	b.closeWindow()
	b.rest()
}

// Seal finishes the builder and returns its summary, which the builder
// shares until its next Append. It is how merge, downsample and the cell
// block reach a cell: the type they read holds no open window.
func (b *Builder) Seal() *Summary {
	b.Finish()
	return &b.summary
}

// rest puts a builder in its sealed form, its columns as they are: the
// open-window engine (clip arena included) back in its pool, head dispatch
// recomputed.
func (b *Builder) rest() {
	if b.win != nil {
		b.win.recycle()
		b.win = nil
	}
	b.updateHeadLow()
}

// clipped returns s in a backing array of exactly len(s) elements.
func clipped[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// feed constrains F̃(t) to [f−γ, f].
func (b *Builder) feed(t, f int64) {
	b.feedRange(rpoint{t: t, hi: float64(f), slack: b.gamma})
}

// window returns the open window's engine, opening one if the builder is
// sealed.
func (b *Builder) window() *region {
	if b.win == nil {
		b.win = regionPool.Get().(*region)
	}
	return b.win
}

// feedRange adds one constraint to the open window, recording the segment
// of the window it closes, if any.
func (b *Builder) feedRange(p rpoint) {
	if seg, ok := b.window().feed(p); ok {
		b.appendSegment(seg)
	}
}

// closeWindow emits a segment for the open window, if any.
func (b *Builder) closeWindow() {
	if b.win == nil {
		return
	}
	if seg, ok := b.win.close(); ok {
		b.appendSegment(seg)
	}
}

// boundStarts refreshes what searchFull keeps beside the starts column: the
// last start and the interpolation slope from the first to it. The first is
// the offsets' base, fixed by the first segment.
func (s *Summary) boundStarts() {
	n := s.n
	if n == 0 {
		return
	}
	s.lastStart = s.start(n - 1)
	if span := uint64(s.lastStart) - uint64(s.firstStart); span > 0 {
		s.invSpan = float64(n-1) / float64(span)
	}
}

// Estimate returns F̃(t).
//
// Closed segments answer t within their spans; between segments F̃ holds the
// previous segment's final value (the staircase is flat there, so the hold
// stays within γ). At and past the frontier the answer is the exact count.
func (s *Summary) Estimate(t int64) float64 {
	if t >= s.headLow {
		return float64(s.count)
	}
	i := s.searchFull(t)
	if i < 0 {
		return 0
	}
	return segVal(s.segAt(i, s.start(i)), t)
}

// Estimate returns F̃(t) as Summary.Estimate does, answering the still-open
// tail from the live feasible region: any of its lines satisfies every
// constraint of the open window. (A one-line wrapper over a shared kernel
// would inline into every caller and grow the point query's frame; this
// body does not.)
func (b *Builder) Estimate(t int64) float64 {
	if t >= b.headLow {
		cc := centroidCache{}
		if v, ok := b.liveHead(b.win, t, &cc); ok {
			return v
		}
	}
	i := b.searchFull(t)
	if i < 0 {
		return 0
	}
	return segVal(b.segAt(i, b.start(i)), t)
}

// Segments returns a copy of the closed segments.
func (s *Summary) Segments() []Segment {
	if s.n == 0 {
		return nil
	}
	out := make([]Segment, s.n)
	for i := range out {
		out[i] = s.seg(i)
	}
	return out
}

// Breakpoints returns the times where F̃ changes shape: each segment start
// and the instant just past each segment end (where the flat hold begins),
// plus the open-corner frontier.
func (s *Summary) Breakpoints() []int64 {
	out := make([]int64, 0, 2*s.n+1)
	for i := range s.n {
		start := s.start(i)
		out = appendBreakpoint(out, start)
		out = appendBreakpoint(out, start+s.segLen(i)+1)
	}
	if s.count > 0 {
		out = appendBreakpoint(out, s.lastT)
	}
	return out
}

// appendBreakpoint keeps the list ascending and duplicate-free without a
// sort. Segments are ascending and a successor (or the frontier) starts no
// earlier than its predecessor's End, so the one value that can arrive out
// of order is that very End — it belongs just before the End+1 appended last.
func appendBreakpoint(out []int64, v int64) []int64 {
	n := len(out)
	switch {
	case n == 0 || v > out[n-1]:
		return append(out, v)
	case v == out[n-1] || (n > 1 && v == out[n-2]):
		return out
	}
	out = append(out, out[n-1])
	out[n-1] = v
	return out
}

// Count returns the number of arrivals ingested.
func (s *Summary) Count() int64 { return s.count }

// Frontier returns the time of the last arrival (zero before the first).
func (s *Summary) Frontier() int64 { return s.lastT }

// OutOfOrder returns how many arrivals were clamped.
func (s *Summary) OutOfOrder() int64 { return s.outOfOrder }

// NumSegments returns the number of closed segments.
func (s *Summary) NumSegments() int { return s.n }

// Bytes returns the summary footprint: what the segment columns hold once
// sealed. A segment takes its start offset, length, value at Start and
// slope at the width in bytes the cell's widest of each needs — a slope the
// top 0, 2, 3 or 4 bytes of its float32 — and in a cell of float64 values
// the value takes 8 bytes. The last row carries the few bytes its loads
// read past it, and an escaped segment 16 more for its float64 line. That is
// a standalone summary's count; a laid level's cells share those few bytes
// with their successors (LevelSplit). Counted: segment payload only. Not
// counted: the Builder struct itself (widths and base included), the wide
// form's header and the allocator's per-array rounding, a fixed cost per
// cell that a sketch of K cells pays K times whatever the history's length
// — and, while a window is open, the columns' room to spare, its feasible
// region and clip arena, which Finish releases.
func (s *Summary) Bytes() int {
	return colSize(s.n, s.sw, s.lw, s.yw, s.aw()) + 16*s.escaped()
}

// Split is where Bytes() go, a line a field of the segment columns: the
// start offsets, lengths, values at Start and slopes of the segments held,
// the escaped lines' float64 pairs, and the read slack, the bytes past the
// last row that its loads read — in a laid level, past the last cell's. The
// lines sum to Bytes().
type Split struct {
	Starts, Lengths, Values, Slopes, Escaped, Slack int
}

// Total returns the sum of the lines.
func (p Split) Total() int {
	return p.Starts + p.Lengths + p.Values + p.Slopes + p.Escaped + p.Slack
}

// Add returns p and q summed line by line.
func (p Split) Add(q Split) Split {
	return Split{p.Starts + q.Starts, p.Lengths + q.Lengths, p.Values + q.Values,
		p.Slopes + q.Slopes, p.Escaped + q.Escaped, p.Slack + q.Slack}
}

// Split returns the summary's Bytes() split by field.
func (s *Summary) Split() Split {
	n := s.n
	p := Split{Starts: n * int(s.sw), Lengths: n * int(s.lw), Values: n * int(s.yw), Slopes: n * int(s.aw()), Escaped: 16 * s.escaped()}
	p.Slack = colSize(n, s.sw, s.lw, s.yw, s.aw()) - p.fields()
	return p
}

// fields returns the lines of the segments' own fields.
func (p Split) fields() int { return p.Starts + p.Lengths + p.Values + p.Slopes }

// LevelSplit returns the footprint of a level's cells split by field and
// summed: when they lie in cols as Lay lays them, the array their columns
// take — the slack only the bytes the last cell's loads read past the
// fields — and their escaped lines; otherwise each cell's own Split.
func LevelSplit(cells []Builder, cols []byte) Split {
	var p Split
	for i := range cells {
		p = p.Add(cells[i].Split())
	}
	if Laid(cells, cols) {
		p.Slack = len(cols) - p.fields()
	}
	return p
}
