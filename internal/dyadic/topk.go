package dyadic

import (
	"fmt"
	"math"
)

// EventScore pairs an event id with its estimated burstiness.
type EventScore struct {
	Event      uint64
	Burstiness float64
}

// TopBursty returns up to k events with the largest estimated burstiness at
// time ts (descending), found by best-first search over the dyadic tree.
//
// Each node is scored by its aggregate burstiness magnitude |b̃|; the
// search expands the highest-scored node first and stops once k leaves
// have been resolved whose scores dominate every unexpanded node's score.
// Like Algorithm 3's pruning bound, the aggregate score constrains deeper
// leaves only up to sibling cancellation, so a leaf hidden behind a
// sibling with opposite acceleration can be missed — exactly the events
// the BURSTY EVENT query also misses.
//
//histburst:fastpath topBurstyBinary
func (t *Tree) TopBursty(ts int64, k int, tau int64, stats *QueryStats) ([]EventScore, error) {
	if k <= 0 {
		return nil, fmt.Errorf("dyadic: k must be positive, got %d", k)
	}
	if tau <= 0 {
		return nil, fmt.Errorf("dyadic: tau must be positive, got %d", tau)
	}
	if stats == nil {
		stats = &QueryStats{}
	}
	// The queue starts on the stack: a search that expands a handful of
	// sixteen-way nodes never outgrows it, so the result is the only
	// allocation.
	var stack [8 * maxFanOut]node
	pq := nodeHeap(stack[:0])
	pq = t.pushChildren(pq, len(t.levels), 0, ts, tau, stats)

	results := make([]EventScore, 0, min(k, 63)+1)
	worst := math.Inf(-1) // k-th best resolved leaf score
	for len(pq) > 0 {
		var n node
		n, pq = pq.pop()
		stats.NodesVisited++
		if len(results) >= k && n.bound <= worst {
			break
		}
		if n.i == 0 {
			results = insertScore(results, EventScore{Event: n.agg, Burstiness: n.bound}, k)
			if len(results) >= k {
				worst = results[len(results)-1].Burstiness
			}
			continue
		}
		pq = t.pushChildren(pq, n.i, n.agg, ts, tau, stats)
	}
	return results, nil
}

// pushChildren scores the children of node (i, agg) — the top kept level's
// nodes when i is the virtual root — and queues them: a leaf under its
// burstiness, an inner node under the magnitude of its aggregate.
func (t *Tree) pushChildren(pq nodeHeap, i int, agg uint64, ts, tau int64, stats *QueryStats) nodeHeap {
	shift := t.fanShift(i)
	first := agg << shift
	below := t.levels[i-1]
	for j := uint64(0); j < 1<<shift; j++ {
		b := below.Burstiness(first|j, ts, tau)
		if i-1 > 0 {
			b = math.Abs(b)
		}
		pq = pq.push(node{i: i - 1, agg: first | j, bound: b})
	}
	stats.PointQueries += 1 << shift
	return pq
}

// insertScore keeps the k best scores in descending order.
func insertScore(rs []EventScore, s EventScore, k int) []EventScore {
	pos := len(rs)
	for pos > 0 && rs[pos-1].Burstiness < s.Burstiness {
		pos--
	}
	rs = append(rs, EventScore{})
	copy(rs[pos+1:], rs[pos:])
	rs[pos] = s
	if len(rs) > k {
		rs = rs[:k]
	}
	return rs
}

// node is a queued tree node: the kept level it sits on, its aggregate id
// and the score it is ranked by.
type node struct {
	i     int
	agg   uint64
	bound float64
}

// nodeHeap is a max-heap of nodes by bound, typed so that a push boxes
// nothing: container/heap takes any, which costs an allocation per node — and
// a sixteen-way expansion pushes sixteen. The sift order is container/heap's.
type nodeHeap []node

func (h nodeHeap) push(n node) nodeHeap {
	h = append(h, n)
	h.siftUp(len(h) - 1)
	return h
}

func (h nodeHeap) pop() (node, nodeHeap) {
	last := len(h) - 1
	h[0], h[last] = h[last], h[0]
	h[:last].siftDown(0)
	return h[last], h[:last]
}

//histburst:noalloc
func (h nodeHeap) siftUp(j int) {
	for {
		parent := (j - 1) / 2
		if parent == j || !(h[j].bound > h[parent].bound) {
			return
		}
		h[parent], h[j] = h[j], h[parent]
		j = parent
	}
}

//histburst:noalloc
func (h nodeHeap) siftDown(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].bound > h[j].bound {
			j = r
		}
		if !(h[j].bound > h[i].bound) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
