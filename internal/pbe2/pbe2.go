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
// form — its value at Start and its slope — and stores it in 8 bytes, on a
// grid of 2⁻⁸ count when a line of it lies inside the window's feasible
// region (see line).
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

// line is a closed segment's coefficients as stored, in 8 bytes: a float32
// slope, and in y the segment's value at Start in its cell's form. A narrow
// cell holds it in units of 2⁻⁸ count, an int32 that reaches ±8.4 M counts;
// a window closes on a line of that grid when one lies inside its feasible
// region (region.close), which is nearly always. A cell whose count passes
// that reach, or that meets many windows thinner than 2⁻⁸ count, holds
// every value as a float64 instead, y its low half and the wide form's yhi
// its high half (valueForm). A segment no float32 slope or 32-bit length
// slot holds, or the odd thin window of a narrow cell, is escaped whole to
// the wide form's segs: its length slot holds escLen and the bits of a its
// index there (escapedLine, escIndex).
type line struct {
	a float32
	y int32
}

const (
	// yUnit is the number of narrow y units in one count.
	yUnit = 256
	// minNarrowY is the least narrow y: the cell block tags its records
	// with the two below it (see blockEscaped).
	minNarrowY = math.MinInt32 + 2
	// escLen marks an escaped segment's length slot, and bounds a narrow
	// segment's length: a flat run of seconds never gets there, one of
	// nanoseconds does after 4.3 s.
	escLen = math.MaxUint32
)

// narrowY returns the narrow form of a value at Start, if it holds it
// exactly.
//
//histburst:noalloc
func narrowY(y float64) (int32, bool) {
	k := y * yUnit
	if k != math.Trunc(k) || k < minNarrowY || k > math.MaxInt32 {
		return 0, false
	}
	return int32(k), true
}

// floatLine returns the line of slope a through the float64 value y, in a
// cell whose values are float64, and the high half of y's bits, for yhi.
func floatLine(a float32, y float64) (line, int32) {
	bits := math.Float64bits(y)
	return line{a: a, y: int32(uint32(bits))}, int32(bits >> 32)
}

// escapedLine returns the stored line of the wide form's i-th segment.
func escapedLine(i int) line { return line{a: math.Float32frombits(uint32(i))} }

// escIndex returns an escaped segment's index in the wide form.
//
//histburst:noalloc
func (ln line) escIndex() uint32 { return math.Float32bits(ln.a) }

// wideSeg is an escaped segment: its line as a float64 pair in the local
// form, and its length.
type wideSeg struct {
	a, y float64
	n    int64
}

// wide is what a cell holds only once a segment outgrows its slots, behind
// a pointer that stays nil until then: the escaped segments; once a value at
// Start is off the narrow grid, the high halves of every value's float64
// bits; and, once a start lies 2³² ticks or more past the cell's first,
// every start as a 64-bit offset. A nanosecond clock gets there after 4.3 s,
// a millisecond one after 49.7 days.
type wide struct {
	segs   []wideSeg // indexed by an escaped line's escIndex
	yhi    []int32   // index-aligned with Summary.lines; nil in a narrow cell
	starts []uint64  // replaces Summary.starts, which is then nil
}

// widened returns the wide form, allocating it on first need.
func (s *Summary) widened() *wide {
	if s.wide == nil {
		s.wide = new(wide)
	}
	return s.wide
}

// segLen returns End − Start of the i-th closed segment.
//
//histburst:noalloc
func (s *Summary) segLen(i int) int64 {
	n := s.lens[i]
	if n == escLen {
		return s.wide.segs[s.lines[i].escIndex()].n
	}
	return int64(n)
}

// start returns the Start of the i-th closed segment: its offset from the
// first one, added back. A wide cell's offsets may pass 2⁶³; the int64 sum
// wraps to the exact start all the same.
//
//histburst:noalloc
func (s *Summary) start(i int) int64 {
	if s.starts == nil {
		return s.firstStart + int64(s.wide.starts[i])
	}
	return s.firstStart + int64(s.starts[i])
}

// widen moves the starts to the wide form, keeping their capacity: a start
// 2³² ticks or more past the first is about to be written.
func (s *Summary) widen() {
	w := s.widened()
	w.starts = make([]uint64, len(s.starts), cap(s.starts))
	for i, off := range s.starts {
		w.starts[i] = uint64(off)
	}
	s.starts = nil
}

// seg assembles the i-th closed segment from the columns. It is the one
// reader of the layout: queries, Segments, merge and downsample go through
// it, or through segAt in a cell of narrow values (or through the narrow
// starts, the search key, start and segLen).
//
//histburst:noalloc
func (s *Summary) seg(i int) Segment {
	if s.floatValues() {
		return s.segFloat(i)
	}
	return s.segAt(i, s.start(i))
}

// segAt is seg in a cell whose values at Start are narrow, for a caller
// that has the start already: the segment is its three slots, or, when its
// length slot says so, the escaped segment in the wide form. The point
// kernels call it after one check of the cell, and it inlines into them.
//
//histburst:noalloc
func (s *Summary) segAt(i int, start int64) Segment {
	ln, n := s.lines[i], s.lens[i]
	if n == escLen {
		e := &s.wide.segs[ln.escIndex()]
		return Segment{A: e.a, Y: e.y, Start: start, End: start + e.n}
	}
	return Segment{A: float64(ln.a), Y: float64(ln.y) * (1.0 / yUnit), Start: start, End: start + int64(n)}
}

// segFloat is seg in a cell of float64 values: segAt's segment with its
// value at Start from floatY.
//
//histburst:noalloc
func (s *Summary) segFloat(i int) Segment {
	seg := s.segAt(i, s.start(i))
	seg.Y = s.floatY(i, seg.Y)
	return seg
}

// floatY returns the value at Start of the i-th segment of a cell of
// float64 values, read from the line's y and yhi, or y, segAt's reading,
// when the segment is escaped.
//
//histburst:noalloc
func (s *Summary) floatY(i int, y float64) float64 {
	if s.lens[i] == escLen {
		return y
	}
	return math.Float64frombits(uint64(s.wide.yhi[i])<<32 | uint64(uint32(s.lines[i].y)))
}

// floatValues reports whether the cell holds its values at Start as
// float64.
//
//histburst:noalloc
func (s *Summary) floatValues() bool { return s.wide != nil && s.wide.yhi != nil }

// widenY moves the cell's values at Start to their float64 form, the high
// halves to yhi, as long as the lines: a value off the narrow grid is about
// to be written.
func (s *Summary) widenY(yhi []int32) {
	w := s.widened()
	w.yhi = yhi
	for i, ln := range s.lines {
		if s.lens[i] != escLen {
			s.lines[i], w.yhi[i] = floatLine(ln.a, float64(ln.y)/yUnit)
		}
	}
}

// Summary is a sealed PBE-2 summary: the closed segments of F̃ and the
// exact count at its frontier. Merge, downsample and the cell block read
// summaries and never write them; a Builder hands out its own through Seal.
type Summary struct {
	gamma float64

	// Closed segments, one column per field, index-aligned and exactly as
	// long as the segments they hold: 16 bytes a segment, nothing stored
	// twice; lines is as long as the summary. starts is the one search key —
	// sixteen candidates per cache line — and holds each start as its offset
	// from firstStart, so the kernels compare t − firstStart, converted once
	// per query. lens holds End − Start. What the slots cannot hold — the
	// rare escaped segment, a value at Start off the narrow grid (see line),
	// and starts past 2³² ticks from the first — goes to the wide form, nil
	// until one occurs (see wide); a cell with wide starts has a nil starts
	// column. firstStart/lastStart are the ends of the
	// starts, so full-range searches resolve boundary cases without touching
	// the array.
	starts     []uint32
	lens       []uint32
	lines      []line
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

// rest puts a builder in its sealed form: the open-window engine (clip arena
// included) back in its pool, head dispatch recomputed, columns exactly as
// long as the segments they hold.
func (b *Builder) rest() {
	if b.win != nil {
		b.win.recycle()
		b.win = nil
	}
	b.updateHeadLow()
	b.starts = clipped(b.starts)
	b.lens = clipped(b.lens)
	b.lines = clipped(b.lines)
	if w := b.wide; w != nil {
		w.segs = clipped(w.segs)
		w.yhi = clipped(w.yhi)
		w.starts = clipped(w.starts)
	}
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

// appendSegment appends seg to the columns: as a line when a float32 slope
// and a 32-bit length slot hold it and valueForm does not escape its value,
// escaped whole to the wide form otherwise.
func (s *Summary) appendSegment(seg Segment) {
	n := uint64(seg.End - seg.Start)
	a := float32(seg.A)
	form := escapedValue
	if float64(a) == seg.A && n < escLen {
		form = s.valueForm(seg.Y, s.escaped(), len(s.lines))
	}
	switch form {
	case narrowValue:
		y, _ := narrowY(seg.Y)
		s.appendColumns(seg.Start, uint32(n), line{a: a, y: y}, 0)
	case floatValue:
		if !s.floatValues() {
			s.widenY(make([]int32, len(s.lines), cap(s.lines)))
		}
		ln, hi := floatLine(a, seg.Y)
		s.appendColumns(seg.Start, uint32(n), ln, hi)
	default:
		w := s.widened()
		w.segs = append(w.segs, wideSeg{a: seg.A, y: seg.Y, n: int64(n)})
		s.appendColumns(seg.Start, escLen, escapedLine(len(w.segs)-1), 0)
	}
}

// The forms in which a cell stores a line's value at Start (valueForm).
const (
	narrowValue  = iota // an int32 count of 2⁻⁸, the line's y
	floatValue          // a float64, its bits split between y and yhi
	escapedValue        // with the line, escaped whole to the wide form
)

// valueForm returns the form in which a cell that has escaped e of its i
// segments stores y, the value at Start of its next line, whose slope is a
// float32. A cell holding float64 values keeps to them. Otherwise a value on
// the narrow grid is narrow, and one past the grid's range takes the cell to
// float64, since the values after it will be past it too. A value off the
// grid within its range — a window thinner than 2⁻⁸ count — escapes while
// the cell has escaped fewer than a sixth of its segments, or fewer than
// three: an escape costs 24 bytes where float64 values cost 4 a segment, and
// a cell that meets one thin window seldom meets many.
//
//histburst:noalloc
func (s *Summary) valueForm(y float64, e, i int) int {
	if s.floatValues() {
		return floatValue
	}
	if _, ok := narrowY(y); ok {
		return narrowValue
	}
	if k := y * yUnit; k >= minNarrowY && k <= math.MaxInt32 && 6*e < max(i, 18) {
		return escapedValue
	}
	return floatValue
}

// escaped returns how many segments the cell has escaped whole.
func (s *Summary) escaped() int {
	if s.wide == nil {
		return 0
	}
	return len(s.wide.segs)
}

// appendColumns appends a segment starting at start whose length slot and
// line are n and ln, and hi to yhi in a cell whose values are float64.
func (s *Summary) appendColumns(start int64, n uint32, ln line, hi int32) {
	i := len(s.lines)
	if i == 0 {
		s.firstStart = start
	}
	off := uint64(start) - uint64(s.firstStart)
	if off > math.MaxUint32 && s.starts != nil {
		s.widen()
	}
	if i > 0 && s.starts == nil {
		s.wide.starts = append(s.wide.starts, off)
	} else {
		s.starts = append(s.starts, uint32(off))
	}
	if s.floatValues() {
		s.wide.yhi = append(s.wide.yhi, hi)
	}
	s.lens = append(s.lens, n)
	s.lines = append(s.lines, ln)
	s.boundStarts()
}

// boundStarts refreshes what searchFull keeps beside the starts column: the
// last start and the interpolation slope from the first to it. The first is
// the offsets' base, fixed by the first segment.
func (s *Summary) boundStarts() {
	n := len(s.lines)
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
	switch {
	case i < 0:
		return 0
	case s.floatValues():
		return segVal(s.segFloat(i), t)
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
	switch {
	case i < 0:
		return 0
	case b.floatValues():
		return segVal(b.segFloat(i), t)
	}
	return segVal(b.segAt(i, b.start(i)), t)
}

// Segments returns a copy of the closed segments.
func (s *Summary) Segments() []Segment {
	if len(s.lines) == 0 {
		return nil
	}
	out := make([]Segment, len(s.lines))
	for i := range out {
		out[i] = s.seg(i)
	}
	return out
}

// Breakpoints returns the times where F̃ changes shape: each segment start
// and the instant just past each segment end (where the flat hold begins),
// plus the open-corner frontier.
func (s *Summary) Breakpoints() []int64 {
	out := make([]int64, 0, 2*len(s.lines)+1)
	for i := range s.lines {
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
func (s *Summary) NumSegments() int { return len(s.lines) }

// Bytes returns the summary footprint: what the segment columns hold. That
// is 16 bytes per closed segment (a uint32 offset of its start from the
// first, a uint32 length, a float32 slope and an int32 value at its start),
// plus 24 per escaped segment (its float64 line and int64 length), 4 more
// per segment in a cell whose values at Start took the float64 form, and 4
// more per segment in a cell whose starts took the 64-bit form. Counted:
// segment payload only. Not counted: the Builder struct itself, the wide
// form's header and the allocator's per-array rounding, a
// fixed cost per cell that a sketch of K cells pays K times whatever the
// history's length — and, while a window is open, its feasible region and
// clip arena, which Finish releases.
func (s *Summary) Bytes() int {
	n := 4*len(s.starts) + 12*len(s.lines)
	if w := s.wide; w != nil {
		n += 8*len(w.starts) + 24*len(w.segs) + 4*len(w.yhi)
	}
	return n
}
