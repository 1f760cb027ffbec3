package dyadic

import (
	"sync"
	"sync/atomic"
)

// BurstyEventsParallel answers the same BURSTY EVENT QUERY as BurstyEvents,
// sharing the pruned top-down search out over at most workers goroutines. The
// result is byte-identical to the sequential search (ascending, same ids) and
// stats, if non-nil, accumulates the identical totals: the calling goroutine
// walks the top of the tree a level at a time until at least workers subtrees
// survive (the top kept level alone usually does: it has up to sixteen
// nodes), then the goroutines claim those subtrees in ascending order off one
// counter, each into its own output slice, and the slices are concatenated in
// subtree order once all have joined — the sequential emission order by
// construction.
//
// Level summaries must be safe for concurrent reads; the cmpbe sketches are
// (queries never mutate a finished or in-construction cell).
//
//histburst:fastpath BurstyEvents
func (t *Tree) BurstyEventsParallel(ts int64, theta float64, tau int64, workers int, stats *QueryStats) ([]uint64, error) {
	if workers <= 1 || theta <= 0 {
		return t.BurstyEvents(ts, theta, tau, stats) // which refuses θ ≤ 0
	}
	if stats == nil {
		stats = &QueryStats{}
	}
	s := search{x: t.Index, ts: ts, theta: theta, tau: tau}
	frontier := []subtree{{i: len(t.levels)}}
	for len(frontier) > 0 && len(frontier) < workers && frontier[0].i > 0 {
		frontier = s.descend(frontier, stats)
	}
	if len(frontier) == 0 {
		return nil, nil
	}

	outs := make([][]uint64, len(frontier))
	workers = min(workers, len(frontier))
	parts := make([]QueryStats, workers)
	var next atomic.Int32
	walk := func(w int) {
		var st QueryStats
		for j := int(next.Add(1)) - 1; j < len(frontier); j = int(next.Add(1)) - 1 {
			f := frontier[j]
			s.visit(f.i, f.agg, f.b, &st, &outs[j])
		}
		parts[w] = st
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			walk(w)
		}()
	}
	walk(0) // the caller is a worker too
	wg.Wait()

	var out []uint64
	for j := range outs {
		out = append(out, outs[j]...)
	}
	for _, p := range parts {
		stats.PointQueries += p.PointQueries
		stats.NodesVisited += p.NodesVisited
		stats.Pruned += p.Pruned
	}
	return out, nil
}

// subtree is a node the search has reached and not yet visited, with the
// estimate its parent computed for it.
type subtree struct {
	i   int
	agg uint64
	b   float64
}

// descend visits every node of the frontier — all at one level above the
// leaves — and returns the children that survive, in ascending id order.
func (s *search) descend(frontier []subtree, stats *QueryStats) []subtree {
	var below []subtree
	var cb [maxFanOut]float64
	for _, f := range frontier {
		stats.NodesVisited++
		first, n := s.expand(f.i, f.agg, f.b, &cb, stats)
		for j := 0; j < n; j++ {
			below = append(below, subtree{i: f.i - 1, agg: first | uint64(j), b: cb[j]})
		}
	}
	return below
}
