package pbe2

import (
	"math/rand"
	"sync"
	"testing"

	"histburst/internal/workload"
)

// The two halves of a point query's work in a cell, apart: finding the
// segment (searchFull) and reading it (segAt). Both run over the leaf cells
// of the lib_paper benchmark's detector — olympicrio, 600 k elements, seed
// 1, one cell an event (K = 1024 holds its 864 events apart), γ = 8 — at
// 4 096 fixed probes drawn over every segment, or every instant, of them.

var (
	leafOnce  sync.Once
	leafCells []*Summary
)

// libPaperLeaves returns the sealed leaf cells of the lib_paper detector
// that hold segments.
func libPaperLeaves(b *testing.B) []*Summary {
	leafOnce.Do(func() {
		data, err := workload.Generate(workload.OlympicRioSpec(1, 600_000))
		if err != nil {
			panic(err)
		}
		cells, err := NewCells(1024, 8)
		if err != nil {
			panic(err)
		}
		for _, el := range data {
			cells[el.Event%1024].Append(el.Time)
		}
		for i := range cells {
			if s := cells[i].Seal(); s.NumSegments() > 0 {
				leafCells = append(leafCells, s)
			}
		}
	})
	if len(leafCells) == 0 {
		b.Fatal("no leaf cell holds a segment")
	}
	return leafCells
}

var kernelSink float64

// BenchmarkSummarySegAt reads one stored segment a op, its start given:
// the line's decode and nothing of the search.
func BenchmarkSummarySegAt(b *testing.B) {
	cells := libPaperLeaves(b)
	type probe struct {
		s     *Summary
		i     int
		start int64
	}
	rng := rand.New(rand.NewSource(1))
	var probes [4096]probe
	for k := range probes {
		s := cells[rng.Intn(len(cells))]
		i := rng.Intn(s.NumSegments())
		probes[k] = probe{s, i, s.start(i)}
	}
	b.ResetTimer()
	sum := 0.0
	for n := 0; n < b.N; n++ {
		p := &probes[n&(len(probes)-1)]
		seg := p.s.segAt(p.i, p.start)
		sum += seg.A + seg.Y + float64(seg.End)
	}
	kernelSink = sum
}

// BenchmarkSummarySearch finds the segment of one instant a op, within its
// cell's history: searchFull and nothing of the line.
func BenchmarkSummarySearch(b *testing.B) {
	cells := libPaperLeaves(b)
	type probe struct {
		s *Summary
		t int64
	}
	rng := rand.New(rand.NewSource(2))
	var probes [4096]probe
	for k := range probes {
		s := cells[rng.Intn(len(cells))]
		probes[k] = probe{s, s.start(0) + rng.Int63n(s.Frontier()-s.start(0)+1)}
	}
	b.ResetTimer()
	sum := 0
	for n := 0; n < b.N; n++ {
		p := &probes[n&(len(probes)-1)]
		sum += p.s.searchFull(p.t)
	}
	kernelSink = float64(sum)
}
