package cmpbe

import (
	"fmt"

	"histburst/internal/binenc"
	"histburst/internal/hash"
	"histburst/internal/pbe2"
)

// Serialization. A sketch serializes its dimensions and bookkeeping, then its
// cells together, as one pbe2 cell block. A collision-free level is stored
// under its own record, without the depth and seed its identity hash does not
// need. Loading requires the gamma the cells were built under.

var (
	sketchMagic = []byte{'C', 'M', 'P', 1}
	directMagic = []byte{'D', 'I', 'R', 1}
)

const maxCells = 1 << 24

// Encode appends the sketch's serialized form to w, finishing its cells.
func (s *Sketch) Encode(w *binenc.Writer) error {
	if s.CollisionFree() {
		w.BytesBlob(directMagic)
		w.Uvarint(uint64(s.w))
	} else {
		w.BytesBlob(sketchMagic)
		w.Uvarint(uint64(s.d))
		w.Uvarint(uint64(s.w))
		w.Int64(s.seed)
	}
	w.Varint(s.n)
	w.Varint(s.maxT)
	cells := make([]*pbe2.Summary, len(s.cells))
	for i := range s.cells {
		cells[i] = s.cells[i].Seal()
	}
	return pbe2.EncodeBlock(w, cells, s.maxT)
}

// DecodeLevel reads one serialized level, a Count-Min sketch or a
// collision-free one by the magic it opens with, from r and leaves r just
// past it. Its cells must be under gamma, the cap they were built with.
//
//histburst:decoder
func DecodeLevel(r *binenc.Reader, gamma float64) (*Sketch, error) {
	magic := string(r.BytesBlob())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cmpbe: unreadable summary header: %w", err)
	}
	switch magic {
	case string(sketchMagic):
		return decodeSketch(r, false, gamma)
	case string(directMagic):
		return decodeSketch(r, true, gamma)
	default:
		return nil, fmt.Errorf("cmpbe: unknown summary magic %q", magic)
	}
}

// decodeSketch reads the rest of a level record: a collision-free one holds
// its width, a Count-Min one its depth, width and seed.
//
//histburst:decoder
func decodeSketch(r *binenc.Reader, collisionFree bool, gamma float64) (*Sketch, error) {
	d, seed := uint64(1), int64(0)
	var w uint64
	if collisionFree {
		w = r.Uvarint()
	} else {
		d, w, seed = r.Uvarint(), r.Uvarint(), r.Int64()
	}
	n := r.Varint()
	maxT := r.Varint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Check d and w individually before the product: both come from the
	// wire, and a pair like 2³²×2³² would overflow d*w right past the cap.
	if d == 0 || w == 0 || d > maxCells || w > maxCells || d*w > maxCells {
		return nil, fmt.Errorf("cmpbe: implausible dimensions %d×%d", d, w)
	}
	// An empty cell is one bit of the block; a short record claiming many
	// cells must not allocate them, or a hash function per row, just to fail.
	if (d*w+7)/8 > uint64(r.Remaining()) {
		return nil, fmt.Errorf("cmpbe: %d cells exceed %d remaining bytes", d*w, r.Remaining())
	}
	hf := hash.Identity(int(w))
	if !collisionFree {
		var err error
		if hf, err = hash.NewFamily(int(d), int(w), seed); err != nil {
			return nil, err
		}
	}
	cells, err := decodeCells(r, int(d*w), int(w), n, maxT, gamma)
	if err != nil {
		return nil, err
	}
	return &Sketch{d: int(d), w: int(w), seed: seed, cells: cells, hf: hf, n: n, maxT: maxT}, nil
}

// decodeCells reads the count cells of a level that ingested n elements up
// to maxT. The level must be under gamma — cells under another would refuse
// to merge with the ones its configuration goes on to build — and account
// for its elements: every element lands in exactly one cell of each row, so
// each row's counts sum to n.
//
//histburst:decoder
func decodeCells(r *binenc.Reader, count, row int, n, maxT int64, gamma float64) ([]pbe2.Builder, error) {
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
