package dyadic

import (
	"fmt"
	"math"

	"histburst/internal/pbe"
)

// EventScore pairs an event id with its estimated burstiness.
type EventScore struct {
	Event      uint64
	Burstiness float64
}

// TopBursty returns up to k events with the largest estimated burstiness at
// time ts over span sp, by descending burstiness and then ascending id — at
// the k-th place too — found by best-first search over the index. A k that
// is not positive is refused unprefixed, for the query's entry point to name
// itself.
//
// A node is ranked as its aggregate burstiness magnitude |b̃| at its lowest
// leaf id; the search expands the first node in rank order and stops once
// the k-th resolved leaf ranks before every unexpanded node. Like Algorithm
// 3's pruning bound, the aggregate score constrains deeper leaves only up to
// sibling cancellation, so a leaf hidden behind a sibling with opposite
// acceleration can be missed — exactly the events the BURSTY EVENT query
// also misses.
//
//histburst:fastpath topBurstyBinary
func (x Index) TopBursty(ts int64, k int, sp pbe.Span, stats *QueryStats) ([]EventScore, error) {
	if k <= 0 {
		return nil, fmt.Errorf("k must be positive, got %d", k)
	}
	if stats == nil {
		stats = &QueryStats{}
	}
	// The queue starts on the stack: a search that expands a handful of
	// sixteen-way nodes never outgrows it, so the result is the only
	// allocation.
	var stack [8 * maxFanOut]node
	pq := nodeHeap(stack[:0])
	pq = x.pushChildren(pq, len(x.scorers), 0, ts, sp, stats)

	results := make([]EventScore, 0, min(k, 63)+1)
	for len(pq) > 0 {
		var n node
		n, pq = pq.pop()
		stats.NodesVisited++
		if len(results) >= k && ranksBefore(results[k-1], n.EventScore) {
			break
		}
		if n.i == 0 {
			results = insertScore(results, n.EventScore, k)
			continue
		}
		pq = x.pushChildren(pq, n.i, n.Event>>x.heights[n.i], ts, sp, stats)
	}
	return results, nil
}

// pushChildren scores the children of node (i, agg) — the top kept level's
// nodes when i is the virtual root — and queues them: a leaf under its
// burstiness, an inner node under the magnitude of its aggregate.
func (x Index) pushChildren(pq nodeHeap, i int, agg uint64, ts int64, sp pbe.Span, stats *QueryStats) nodeHeap {
	shift := x.fanShift(i)
	first := agg << shift
	below, h := x.scorers[i-1], x.heights[i-1]
	for j := uint64(0); j < 1<<shift; j++ {
		b := below.Burstiness(first|j, ts, sp)
		if i-1 > 0 {
			b = math.Abs(b)
		}
		pq = pq.push(node{EventScore{(first | j) << h, b}, i - 1})
	}
	stats.PointQueries += 1 << shift
	return pq
}

// ranksBefore reports whether a ranks ahead of b: a higher score, or the same
// score under a lower id.
func ranksBefore(a, b EventScore) bool {
	return a.Burstiness > b.Burstiness || a.Burstiness == b.Burstiness && a.Event < b.Event
}

// insertScore keeps the k best scores in rank order.
func insertScore(rs []EventScore, s EventScore, k int) []EventScore {
	pos := len(rs)
	for pos > 0 && ranksBefore(s, rs[pos-1]) {
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

// node is a queued tree node, ranked as the best a leaf under it can rank:
// its score at the lowest leaf id it covers. i is the kept level it sits on.
type node struct {
	EventScore
	i int
}

// nodeHeap is a heap of nodes in rank order (ranksBefore), typed so that a
// push boxes nothing: container/heap takes any, which costs an allocation per
// node — and a sixteen-way expansion pushes sixteen. The sift order is
// container/heap's.
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
		if parent == j || !ranksBefore(h[j].EventScore, h[parent].EventScore) {
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
		if r := j + 1; r < len(h) && ranksBefore(h[r].EventScore, h[j].EventScore) {
			j = r
		}
		if !ranksBefore(h[j].EventScore, h[i].EventScore) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
