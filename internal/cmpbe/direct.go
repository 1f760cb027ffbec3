package cmpbe

import (
	"fmt"
	"slices"
	"sync/atomic"

	"histburst/internal/pbe"
	"histburst/internal/pbe2"
	"histburst/internal/stream"
)

// Direct is the degenerate sketch for a small id space: one PBE-2 cell per
// id, no hashing, no collisions. The dyadic tree of Section V uses it for its
// top levels, where the number of aggregate ids is smaller than any useful
// Count-Min width — hashing two ids into two cells would collide with
// constant probability and destroy the additivity (F_parent = ΣF_child)
// that the pruning bound relies on.
type Direct struct {
	cells []pbe2.Builder
	n     int64
	maxT  int64

	// AppendBatch's counting-sort scratch, released by Finish: each cell's
	// run end within the batch, and the batch's timestamps grouped by cell.
	batchEnd   []int32
	batchTimes []int64

	// bytesMemo caches Bytes()+1 (0 = invalid); see Sketch.bytesMemo.
	//
	//histburst:atomic
	bytesMemo atomic.Int64
}

// NewDirect creates a direct summary over the id space [0, ids) whose cells
// are PBE-2 summaries under error cap gamma.
func NewDirect(ids uint64, gamma float64) (*Direct, error) {
	if ids == 0 {
		return nil, fmt.Errorf("cmpbe: direct id space must be non-empty")
	}
	cells, err := pbe2.NewCells(int(ids), gamma)
	if err != nil {
		return nil, err
	}
	return &Direct{cells: cells}, nil
}

// cell returns id e's cell; ids outside the space are folded in.
func (d *Direct) cell(e uint64) *pbe2.Builder {
	return &d.cells[e%uint64(len(d.cells))]
}

// Append ingests one element. Ids outside the space are folded in.
func (d *Direct) Append(e uint64, t int64) {
	d.cell(e).Append(t)
	d.n++
	if t > d.maxT {
		d.maxT = t
	}
	if d.bytesMemo.Load() != 0 {
		d.bytesMemo.Store(0)
	}
}

// AppendBatch ingests elems in order, each under the id Event>>shift, with
// the counters moved once per batch; see Sketch.AppendBatch. A batch with at
// least one arrival per cell on average is fed cell-major: a stable counting
// sort groups its timestamps by cell, so each cell's state is loaded once
// per batch instead of once per arrival, and every cell still receives its
// arrivals in stream order.
//
//histburst:fastpath Append
func (d *Direct) AppendBatch(elems []stream.Element, shift uint) {
	ids := uint64(len(d.cells))
	cell := func(e uint64) uint64 {
		if e >>= shift; e >= ids {
			e %= ids
		}
		return e
	}
	if uint64(len(elems)) < ids {
		for _, el := range elems {
			d.cells[cell(el.Event)].Append(el.Time)
		}
	} else {
		if d.batchEnd == nil {
			d.batchEnd = make([]int32, ids)
		}
		end := d.batchEnd
		clear(end)
		for _, el := range elems {
			end[cell(el.Event)]++
		}
		sum := int32(0)
		for c, n := range end {
			end[c] = sum // where cell c's run starts; the scatter below advances it to the run's end
			sum += n
		}
		d.batchTimes = slices.Grow(d.batchTimes[:0], len(elems))[:len(elems)]
		for _, el := range elems {
			c := cell(el.Event)
			d.batchTimes[end[c]] = el.Time
			end[c]++
		}
		lo := int32(0)
		for c, hi := range end {
			for _, t := range d.batchTimes[lo:hi] {
				d.cells[c].Append(t)
			}
			lo = hi
		}
	}
	d.n += int64(len(elems))
	d.maxT = batchMaxTime(elems, d.maxT)
	d.bytesMemo.Store(0)
}

// Finish flushes every cell. Idempotent.
func (d *Direct) Finish() {
	for i := range d.cells {
		d.cells[i].Finish()
	}
	if d.batchEnd != nil { // leave a finished summary unwritten: readers may be running
		d.batchEnd, d.batchTimes = nil, nil
	}
	d.bytesMemo.Store(0)
}

// IDs returns the size of the id space: one cell per id.
func (d *Direct) IDs() uint64 { return uint64(len(d.cells)) }

// N returns the number of elements ingested.
func (d *Direct) N() int64 { return d.n }

// MaxTime returns the largest timestamp seen.
func (d *Direct) MaxTime() int64 { return d.maxT }

// EstimateF returns F̃_e(t) from e's dedicated PBE (error is the PBE's own
// only — no collision term).
func (d *Direct) EstimateF(e uint64, t int64) float64 {
	return d.cell(e).Estimate(t)
}

// Burstiness answers the point query from e's dedicated PBE.
func (d *Direct) Burstiness(e uint64, t, tau int64) float64 {
	return pbe.Burstiness(d.cell(e), t, tau)
}

// View returns e's PBE as a read-only estimator.
func (d *Direct) View(e uint64) pbe.Estimator {
	return d.cell(e)
}

// EventCells returns e's single dedicated cell — the Direct analogue of
// Sketch.EventCells (a collision-free summary is a one-row sketch for the
// purposes of cross-segment combination). The cell is a live reference;
// callers must treat it as read-only.
func (d *Direct) EventCells(e uint64) []*pbe2.Builder {
	return []*pbe2.Builder{d.cell(e)}
}

// AppendEventCells appends e's single cell to buf and returns it — the
// buffer-reusing variant of EventCells.
//
//histburst:fastpath EventCells
func (d *Direct) AppendEventCells(e uint64, buf []*pbe2.Builder) []*pbe2.Builder {
	return append(buf, d.cell(e))
}

// BurstyTimes answers the BURSTY TIME QUERY for e.
func (d *Direct) BurstyTimes(e uint64, theta float64, tau int64) []pbe.TimeRange {
	return pbe.BurstyTimes(d.View(e), theta, tau, d.maxT)
}

// Bytes returns the total footprint of all cells, memoized until the next
// mutation exactly as Sketch.Bytes is.
func (d *Direct) Bytes() int {
	if v := d.bytesMemo.Load(); v > 0 {
		return int(v - 1)
	}
	total := cellBytes(d.cells)
	d.bytesMemo.Store(int64(total) + 1)
	return total
}
