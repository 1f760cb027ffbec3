package cmpbe

import (
	"fmt"

	"histburst/internal/binenc"
	"histburst/internal/hash"
	"histburst/internal/pbe"
	"histburst/internal/pbe2"
)

// Serialization. Sketches and Direct summaries serialize their dimensions
// and bookkeeping, then their cells together, as one pbe2 cell block. Only
// PBE-2 levels serialize: a level of any other cell type is refused on encode,
// and a factory of any other cell type on decode, each naming the type.
// Loading requires a factory under the gamma the cells were built with.

var (
	sketchMagic = []byte{'C', 'M', 'P', 1}
	directMagic = []byte{'D', 'I', 'R', 1}
)

const maxCells = 1 << 24

// Encode appends the sketch's serialized form to w, finishing its cells.
func (s *Sketch) Encode(w *binenc.Writer) error {
	w.BytesBlob(sketchMagic)
	w.Uvarint(uint64(s.d))
	w.Uvarint(uint64(s.w))
	w.Int64(s.seed)
	w.Varint(s.n)
	w.Varint(s.maxT)
	return encodeCells(w, s.flat, s.maxT)
}

// Encode appends the summary's serialized form to w, finishing its cells.
func (d *Direct) Encode(w *binenc.Writer) error {
	w.BytesBlob(directMagic)
	w.Uvarint(uint64(len(d.cells)))
	w.Varint(d.n)
	w.Varint(d.maxT)
	return encodeCells(w, d.cells, d.maxT)
}

// DecodeLevel reads one serialized Sketch or Direct from r, dispatching on
// the magic it opens with, and leaves r just past it. The concrete type is
// *Sketch or *Direct; callers (e.g. the dyadic tree loader) assert to the
// interface they need. The factory must produce the cell type used at build
// time.
//
//histburst:decoder
func DecodeLevel(r *binenc.Reader, f Factory) (any, error) {
	magic := string(r.BytesBlob())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cmpbe: unreadable summary header: %w", err)
	}
	switch magic {
	case string(sketchMagic):
		return decodeSketch(r, f)
	case string(directMagic):
		return decodeDirect(r, f)
	default:
		return nil, fmt.Errorf("cmpbe: unknown summary magic %q", magic)
	}
}

//histburst:decoder
func decodeSketch(r *binenc.Reader, f Factory) (*Sketch, error) {
	d := int(r.Uvarint())
	w := int(r.Uvarint())
	seed := r.Int64()
	n := r.Varint()
	maxT := r.Varint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Check d and w individually before the product: both come from the
	// wire, and a pair like 2³²×2³² would overflow d*w right past the cap.
	if d <= 0 || w <= 0 || d > maxCells || w > maxCells || d*w > maxCells {
		return nil, fmt.Errorf("cmpbe: implausible dimensions %d×%d", d, w)
	}
	hf, err := hash.NewFamily(d, w, seed)
	if err != nil {
		return nil, err
	}
	flat, err := decodeCells(r, d*w, w, n, maxT, f)
	if err != nil {
		return nil, err
	}
	return newSketch(d, w, seed, hf, flat, n, maxT), nil
}

//histburst:decoder
func decodeDirect(r *binenc.Reader, f Factory) (*Direct, error) {
	ids := r.Uvarint()
	n := r.Varint()
	maxT := r.Varint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ids == 0 || ids > maxCells {
		return nil, fmt.Errorf("cmpbe: implausible direct size %d", ids)
	}
	cells, err := decodeCells(r, int(ids), int(ids), n, maxT, f)
	if err != nil {
		return nil, err
	}
	return &Direct{cells: cells, n: n, maxT: maxT}, nil
}

// encodeCells appends a level's cells as one pbe2 cell block.
func encodeCells(w *binenc.Writer, cells []pbe.PBE, maxT int64) error {
	if _, ok := cells[0].(*pbe2.Builder); !ok {
		return fmt.Errorf("cmpbe: cells of type %T do not serialize; only PBE-2 levels do", cells[0])
	}
	return pbe2.EncodeBlock(w, cells, maxT)
}

// decodeCells reads the count cells of a level that ingested n elements up
// to maxT. The factory must build PBE-2 cells, and the level must be under
// its gamma — cells under another would refuse to merge with the ones the
// factory goes on to build — and account for its elements: every element
// lands in exactly one cell of each run of row cells (a sketch's row, a
// Direct's whole array), so each run's counts sum to n.
//
//histburst:decoder
func decodeCells(r *binenc.Reader, count, row int, n, maxT int64, f Factory) ([]pbe.PBE, error) {
	if f == nil {
		return nil, fmt.Errorf("cmpbe: factory must not be nil")
	}
	probe, ok := f().(*pbe2.Builder)
	if !ok {
		return nil, fmt.Errorf("cmpbe: a factory of %T cells cannot decode a level; only PBE-2 levels serialize", f())
	}
	// An empty cell is one bit of the block; a short record claiming many
	// cells must not allocate them all just to fail on the first.
	if (count+7)/8 > r.Remaining() {
		return nil, fmt.Errorf("cmpbe: %d cells exceed %d remaining bytes", count, r.Remaining())
	}
	arena, cells := arenaCells(count)
	if err := pbe2.DecodeBlock(r, arena, maxT); err != nil {
		return nil, fmt.Errorf("cmpbe: %w", err)
	}
	if got := arena[0].Gamma(); got != probe.Gamma() {
		return nil, fmt.Errorf("cmpbe: cells under gamma %v, the factory's are under %v", got, probe.Gamma())
	}
	for at := 0; at < count; at += row {
		var sum int64
		for i := at; i < at+row; i++ {
			sum += arena[i].Count()
		}
		if sum != n {
			return nil, fmt.Errorf("cmpbe: cells %d–%d count %d arrivals, the level %d", at, at+row-1, sum, n)
		}
	}
	return cells, nil
}

// arenaCells lays n PBE-2 cells out in one allocation and returns them both
// ways: the builders to fill in, and the cell slice a level holds.
func arenaCells(n int) ([]pbe2.Builder, []pbe.PBE) {
	arena := make([]pbe2.Builder, n)
	cells := make([]pbe.PBE, n)
	for i := range arena {
		cells[i] = &arena[i]
	}
	return arena, cells
}
