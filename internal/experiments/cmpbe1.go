package experiments

import (
	"math"

	"histburst/internal/cmpbe"
	"histburst/internal/dyadic"
	"histburst/internal/hash"
	"histburst/internal/pbe"
	"histburst/internal/pbe1"
)

// pbe1Eta is the experiments' fixed moderate PBE-1 budget: η = 60 points
// per chunk.
const pbe1Eta = 60

// mixedSketch is what the CM-PBE experiments ask of either variant over a
// mixed stream: a *cmpbe.Sketch, or the CM-PBE-1 baseline.
type mixedSketch interface {
	dyadic.Level
	EstimateF(e uint64, t int64) float64
	EstimateFMin(e uint64, t int64) float64
}

// cmPBE1 is the paper's CM-PBE-1 baseline: Section IV's sketch with PBE-1
// cells of pbe1BufferN arrivals and η points a chunk. It hashes d rows of w
// cells exactly as cmpbe.Sketch does and answers with the median of the rows
// (cmpbe.Median); its collision-free levels are one row under the identity
// hash, as cmpbe.NewDirect builds an event index's. PBE-1's buffered chunks
// neither merge nor serialize, so the baseline is built here, in memory, and
// nowhere else.
type cmPBE1 struct {
	hf    hash.Family
	d, w  int
	cells []*pbe1.Builder
}

var _ mixedSketch = (*cmPBE1)(nil)

// newCMPBE1 returns a Count-Min CM-PBE-1 of d rows and w columns, hashed
// under seed.
func newCMPBE1(d, w int, seed int64, eta int) (*cmPBE1, error) {
	hf, err := hash.NewFamily(d, w, seed)
	if err != nil {
		return nil, err
	}
	cells, err := pbe1Cells(d*w, eta)
	if err != nil {
		return nil, err
	}
	return &cmPBE1{hf: hf, d: d, w: w, cells: cells}, nil
}

// newDirectPBE1 returns a one-cell-per-id CM-PBE-1 over the id space
// [0, ids); ids outside it are folded in.
func newDirectPBE1(ids uint64, eta int) (*cmPBE1, error) {
	cells, err := pbe1Cells(int(ids), eta)
	if err != nil {
		return nil, err
	}
	return &cmPBE1{hf: hash.Identity(int(ids)), d: 1, w: int(ids), cells: cells}, nil
}

func pbe1Cells(n, eta int) ([]*pbe1.Builder, error) {
	cells := make([]*pbe1.Builder, n)
	for i := range cells {
		b, err := pbe1.New(pbe1BufferN, eta)
		if err != nil {
			return nil, err
		}
		cells[i] = b
	}
	return cells, nil
}

// pbe1Levels is the event index of CM-PBE-1 levels in the shape
// dyadic.CMPBELevelsEvery builds; PBE-1 cells have no γ to loosen, so every
// height steers under the cells that answer.
func pbe1Levels(spacing, d, w int, seed int64, eta int) dyadic.LevelFactory {
	return dyadic.LevelsEvery(spacing, d, w, seed,
		func(_ int, seed int64) (dyadic.Level, error) { return newCMPBE1(d, w, seed, eta) },
		func(_ int, ids uint64) (dyadic.Level, error) { return newDirectPBE1(ids, eta) })
}

// rows appends e's cells, one per row, to buf.
func (s *cmPBE1) rows(e uint64, buf []*pbe1.Builder) []*pbe1.Builder {
	for i := 0; i < s.d; i++ {
		buf = append(buf, s.cells[i*s.w+s.hf.Hash(i, e)])
	}
	return buf
}

// median returns the median over e's rows of f evaluated on the row's cell.
func (s *cmPBE1) median(e uint64, f func(c *pbe1.Builder) float64) float64 {
	var cbuf [8]*pbe1.Builder
	var vbuf [8]float64
	vals := vbuf[:0]
	for _, c := range s.rows(e, cbuf[:0]) {
		vals = append(vals, f(c))
	}
	return cmpbe.Median(vals)
}

func (s *cmPBE1) Append(e uint64, t int64) {
	var buf [8]*pbe1.Builder
	for _, c := range s.rows(e, buf[:0]) {
		c.Append(t)
	}
}

func (s *cmPBE1) Finish() {
	for _, c := range s.cells {
		c.Finish()
	}
}

func (s *cmPBE1) Burstiness(e uint64, t int64, sp pbe.Span) float64 {
	return s.median(e, func(c *pbe1.Builder) float64 { return pbe.Burstiness(c, t, sp) })
}

func (s *cmPBE1) EstimateF(e uint64, t int64) float64 {
	return s.median(e, func(c *pbe1.Builder) float64 { return c.Estimate(t) })
}

// EstimateFMin is plain Count-Min's min-of-rows estimate, for abl-med.
func (s *cmPBE1) EstimateFMin(e uint64, t int64) float64 {
	var buf [8]*pbe1.Builder
	min := math.Inf(1)
	for _, c := range s.rows(e, buf[:0]) {
		if v := c.Estimate(t); v < min {
			min = v
		}
	}
	return min
}

func (s *cmPBE1) Bytes() int {
	total := 0
	for _, c := range s.cells {
		total += c.Bytes()
	}
	return total
}
