package cmpbe

import (
	"fmt"

	"histburst/internal/binenc"
	"histburst/internal/pbe"
	"histburst/internal/pbe2"
)

// Level is one level of the event index, of either kind: a Count-Min
// *Sketch, or a collision-free *Direct where the level's ids fit its cells.
// Callers hold levels through it and leave telling the kinds apart to the
// functions below.
type Level interface {
	Append(e uint64, t int64)
	Finish()
	EstimateF(e uint64, t int64) float64
	Burstiness(e uint64, t, tau int64) float64
	BurstyTimes(e uint64, theta float64, tau int64) []pbe.TimeRange
	EventCells(e uint64) []*pbe2.Builder
	AppendEventCells(e uint64, buf []*pbe2.Builder) []*pbe2.Builder
	Bytes() int
	Encode(w *binenc.Writer) error
}

// MergeLevels is MergeSketches or MergeDirects, whichever kind parts are.
func MergeLevels(parts []Level) (Level, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("cmpbe: merge of zero levels")
	}
	if _, ok := parts[0].(*Direct); ok {
		return ofKind(parts, MergeDirects)
	}
	return ofKind(parts, MergeSketches)
}

// DownsampleLevels is DownsampleSketches or DownsampleDirects, whichever kind
// parts are. A sketch narrows to width w only when w divides its width, and
// otherwise keeps it; a Direct keeps its id space.
func DownsampleLevels(parts []Level, gamma float64, res int64, w int) (Level, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("cmpbe: downsample of zero levels")
	}
	switch first := parts[0].(type) {
	case *Direct:
		return ofKind(parts, func(ds []*Direct) (*Direct, error) { return DownsampleDirects(ds, gamma, res) })
	case *Sketch:
		if w < 1 || first.w%w != 0 {
			w = first.w
		}
	}
	return ofKind(parts, func(ss []*Sketch) (*Sketch, error) { return DownsampleSketches(ss, gamma, res, w) })
}

// MergeAppendLevel is Sketch.MergeAppend or Direct.MergeAppend, whichever
// kind dst and src both are.
func MergeAppendLevel(dst, src Level) error {
	switch d := dst.(type) {
	case *Sketch:
		if s, ok := src.(*Sketch); ok {
			return d.MergeAppend(s)
		}
	case *Direct:
		if s, ok := src.(*Direct); ok {
			return d.MergeAppend(s)
		}
	}
	return fmt.Errorf("cmpbe: level kind mismatch: %T vs %T", dst, src)
}

// ofKind hands parts, every one a T, to f.
func ofKind[T Level](parts []Level, f func([]T) (T, error)) (Level, error) {
	srcs := make([]T, len(parts))
	for i, p := range parts {
		s, ok := p.(T)
		if !ok {
			return nil, fmt.Errorf("cmpbe: level kind mismatch: %T vs %T", parts[0], p)
		}
		srcs[i] = s
	}
	out, err := f(srcs)
	if err != nil {
		return nil, err
	}
	return out, nil
}
