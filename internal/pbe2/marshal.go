package pbe2

import (
	"fmt"
	"math"

	"histburst/internal/binenc"
)

// Serialization of one summary on its own — what a histburst.Single saves;
// the cells of a sketch level are stored together, in a cell block (block.go).
// Format (see internal/binenc):
//
//	magic    "PB2\x02"
//	gamma    float64
//	count    varint
//	lastT    varint
//	prevF    varint
//	started  bool
//	done     bool
//	outOfOrd varint
//	segments uvarint count, then (A float64, B float64, ΔStart varint, len varint)
//
// The open feasible region is not serialized: MarshalBinary finishes the
// builder first (sealing the current window into a segment), which loses no
// committed information and keeps the format independent of the geometry
// engine. Appending after unmarshal continues normally.

var pbe2Magic = []byte{'P', 'B', '2', 2}

const maxSegments = 1 << 32

// minSegmentBytes is the least a stored segment occupies, here and in a cell
// block: two one-byte varints and two float64.
const minSegmentBytes = 18

// finite reports whether both coefficients are numbers.
func (ln line) finite() bool {
	return !math.IsNaN(ln.A) && !math.IsInf(ln.A, 0) && !math.IsNaN(ln.B) && !math.IsInf(ln.B, 0)
}

// MarshalBinary implements encoding.BinaryMarshaler. The builder is
// Finish()ed as a side effect (idempotent, and any other choice would drop
// the open window's data).
func (b *Builder) MarshalBinary() ([]byte, error) {
	b.Finish()
	var w binenc.Writer
	w.BytesBlob(pbe2Magic)
	w.Float64(b.gamma)
	w.Varint(b.count)
	w.Varint(b.lastT)
	w.Varint(b.prevF)
	w.Bool(b.started)
	w.Bool(b.done)
	w.Varint(b.outOfOrder)
	w.Uvarint(uint64(len(b.starts)))
	var prevStart int64
	for i, start := range b.starts {
		ln := b.lines[i]
		w.Float64(ln.A)
		w.Float64(ln.B)
		w.Varint(start - prevStart)
		w.Varint(b.segLen(i))
		prevStart = start
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// builder's state entirely.
//
//histburst:decoder
func (b *Builder) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if string(r.BytesBlob()) != string(pbe2Magic) {
		return fmt.Errorf("pbe2: bad magic")
	}
	gamma := r.Float64()
	count := r.Varint()
	lastT := r.Varint()
	prevF := r.Varint()
	started := r.Bool()
	done := r.Bool()
	outOfOrder := r.Varint()
	n := r.SliceLen(maxSegments, minSegmentBytes)
	nb := Builder{
		gamma:  gamma,
		starts: make([]int64, n), lens: make([]uint32, n), lines: make([]line, n),
		count: count, lastT: lastT, prevF: prevF, started: started, done: done,
		outOfOrder: outOfOrder,
	}
	var prevStart, prevEnd int64
	for i := range nb.starts {
		ln := line{A: r.Float64(), B: r.Float64()}
		dStart, length := r.Varint(), r.Varint()
		start := prevStart + dStart
		end := start + length
		// The search kernels assume what the builder guarantees: starts
		// ascend, a segment ends no earlier than it starts and no later than
		// its successor starts, coefficients are numbers. A file that says
		// otherwise would decode into a summary that answers garbage.
		switch {
		case !ln.finite():
			return fmt.Errorf("pbe2: segment %d has non-finite coefficients", i)
		case i > 0 && (dStart < 0 || start < prevStart):
			return fmt.Errorf("pbe2: segment %d starts before its predecessor", i)
		case length < 0 || end < start:
			return fmt.Errorf("pbe2: segment %d has a negative length", i)
		case i > 0 && start < prevEnd:
			return fmt.Errorf("pbe2: segment %d starts before its predecessor ends", i)
		}
		nb.starts[i], nb.lines[i], nb.lens[i] = start, ln, nb.slot(uint64(length))
		prevStart, prevEnd = start, end
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("pbe2: %w", err)
	}
	if err := CheckGamma(gamma); err != nil {
		return fmt.Errorf("pbe2: unmarshal: %w", err)
	}
	nb.boundStarts()
	*b = nb
	b.rest() // sets headLow, clips the long table; the columns are exact already
	return nil
}
