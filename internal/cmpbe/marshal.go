package cmpbe

import (
	"fmt"

	"histburst/internal/binenc"
	"histburst/internal/hash"
	"histburst/internal/pbe2"
)

// Serialization. Sketches and Direct summaries serialize their dimensions
// and bookkeeping, then their cells together, as one pbe2 cell block.
// Loading requires the gamma the cells were built under.

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
	return pbe2.EncodeBlock(w, s.cells, s.maxT)
}

// Encode appends the summary's serialized form to w, finishing its cells.
func (d *Direct) Encode(w *binenc.Writer) error {
	w.BytesBlob(directMagic)
	w.Uvarint(uint64(len(d.cells)))
	w.Varint(d.n)
	w.Varint(d.maxT)
	return pbe2.EncodeBlock(w, d.cells, d.maxT)
}

// DecodeLevel reads one serialized Sketch or Direct from r, dispatching on
// the magic it opens with, and leaves r just past it. Its cells must be under
// gamma, the cap they were built with.
//
//histburst:decoder
func DecodeLevel(r *binenc.Reader, gamma float64) (Level, error) {
	magic := string(r.BytesBlob())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cmpbe: unreadable summary header: %w", err)
	}
	switch magic {
	case string(sketchMagic):
		return decodeSketch(r, gamma)
	case string(directMagic):
		return decodeDirect(r, gamma)
	default:
		return nil, fmt.Errorf("cmpbe: unknown summary magic %q", magic)
	}
}

//histburst:decoder
func decodeSketch(r *binenc.Reader, gamma float64) (Level, error) {
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
	cells, err := decodeCells(r, d*w, w, n, maxT, gamma)
	if err != nil {
		return nil, err
	}
	return &Sketch{d: d, w: w, seed: seed, cells: cells, hf: hf, n: n, maxT: maxT}, nil
}

//histburst:decoder
func decodeDirect(r *binenc.Reader, gamma float64) (Level, error) {
	ids := r.Uvarint()
	n := r.Varint()
	maxT := r.Varint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ids == 0 || ids > maxCells {
		return nil, fmt.Errorf("cmpbe: implausible direct size %d", ids)
	}
	cells, err := decodeCells(r, int(ids), int(ids), n, maxT, gamma)
	if err != nil {
		return nil, err
	}
	return &Direct{cells: cells, n: n, maxT: maxT}, nil
}

// decodeCells reads the count cells of a level that ingested n elements up
// to maxT. The level must be under gamma — cells under another would refuse
// to merge with the ones its configuration goes on to build — and account
// for its elements: every element lands in exactly one cell of each run of
// row cells (a sketch's row, a Direct's whole array), so each run's counts
// sum to n.
//
//histburst:decoder
func decodeCells(r *binenc.Reader, count, row int, n, maxT int64, gamma float64) ([]pbe2.Builder, error) {
	// An empty cell is one bit of the block; a short record claiming many
	// cells must not allocate them all just to fail on the first.
	if (count+7)/8 > r.Remaining() {
		return nil, fmt.Errorf("cmpbe: %d cells exceed %d remaining bytes", count, r.Remaining())
	}
	cells, err := pbe2.NewCells(count, gamma)
	if err != nil {
		return nil, fmt.Errorf("cmpbe: %w", err)
	}
	if err := pbe2.DecodeBlock(r, cells, maxT); err != nil {
		return nil, fmt.Errorf("cmpbe: %w", err)
	}
	if got := cells[0].Gamma(); got != gamma {
		return nil, fmt.Errorf("cmpbe: cells under gamma %v in a level under gamma %v", got, gamma)
	}
	for at := 0; at < count; at += row {
		var sum int64
		for i := at; i < at+row; i++ {
			sum += cells[i].Count()
		}
		if sum != n {
			return nil, fmt.Errorf("cmpbe: cells %d–%d count %d arrivals, the level %d", at, at+row-1, sum, n)
		}
	}
	return cells, nil
}
