// Package stream defines the event-stream model used throughout histburst.
//
// An event stream is an ordered sequence of (event id, timestamp) pairs with
// non-decreasing timestamps, matching the paper's definition
// S = {(a_1,t_1), (a_2,t_2), ...}. The package also provides single-event
// timestamp sequences (S_e), temporal substreams (S[t1,t2]), k-way merging,
// and a compact binary serialization used by the command-line tools.
package stream

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Element is one stream entry: event id plus timestamp.
type Element struct {
	// Event identifies the event this element mentions. Ids live in a
	// dense space [0, K).
	Event uint64
	// Time is the element's timestamp. The unit is application-defined
	// (the experiments use seconds); only ordering and differences matter.
	Time int64
}

// Stream is an ordered multiset of elements. A valid stream has
// non-decreasing timestamps; use Sort or Validate to establish/verify that.
type Stream []Element

// ErrOutOfOrder reports a stream whose timestamps decrease.
var ErrOutOfOrder = errors.New("stream: timestamps out of order")

// Validate returns an error if the stream's timestamps are not
// non-decreasing.
func (s Stream) Validate() error {
	for i := 1; i < len(s); i++ {
		if s[i].Time < s[i-1].Time {
			return fmt.Errorf("%w: element %d has time %d after %d",
				ErrOutOfOrder, i, s[i].Time, s[i-1].Time)
		}
	}
	return nil
}

// Sort orders the stream by timestamp (stably, so elements sharing a
// timestamp keep their relative order).
//
// Streams are assembled by concatenating sequences that are each in order
// already — one per event, one per source — so Sort is a natural merge sort:
// it finds the ascending runs and merges neighbours pairwise, ties to the
// left, log₂(runs) passes in all (O(n log n) at worst, when nothing is in
// order). A stable order by one key is unique, so the result is the one
// slices.SortStableFunc gives.
func (s Stream) Sort() {
	bounds := []int{0} // run starts, then len(s)
	for i := 1; i < len(s); i++ {
		if s[i].Time < s[i-1].Time {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(s))
	if len(bounds) <= 2 {
		return // empty, or one run: sorted already
	}
	src, dst := s, make(Stream, len(s))
	for len(bounds) > 2 {
		merged := bounds[:1]
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[min(i+2, len(bounds)-1)]
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			merged = append(merged, hi)
		}
		bounds = merged
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// mergeRuns merges two sorted runs into dst (len(dst) = len(a)+len(b)),
// taking from a on equal timestamps.
func mergeRuns(dst, a, b Stream) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if b[0].Time < a[0].Time {
			dst[k], b = b[0], b[1:]
		} else {
			dst[k], a = a[0], a[1:]
		}
		k++
	}
	copy(dst[k:], a)
	copy(dst[k+len(a):], b)
}

// Span returns the smallest and largest timestamps in the stream. It returns
// zeros for an empty stream; ok reports whether the stream was non-empty.
func (s Stream) Span() (lo, hi int64, ok bool) {
	if len(s) == 0 {
		return 0, 0, false
	}
	return s[0].Time, s[len(s)-1].Time, true
}

// Sub returns the temporal substream S[t1,t2]: all elements with
// t1 <= Time <= t2. The receiver must be sorted. The result aliases the
// receiver's backing array.
func (s Stream) Sub(t1, t2 int64) Stream {
	if t1 > t2 {
		return nil
	}
	lo := sort.Search(len(s), func(i int) bool { return s[i].Time >= t1 })
	hi := sort.Search(len(s), func(i int) bool { return s[i].Time > t2 })
	return s[lo:hi]
}

// Filter returns the single-event stream S_e for event e: the ordered
// sequence of timestamps at which e was mentioned.
func (s Stream) Filter(e uint64) TimestampSeq {
	var ts TimestampSeq
	for _, el := range s {
		if el.Event == e {
			ts = append(ts, el.Time)
		}
	}
	return ts
}

// Events returns the set of distinct event ids in the stream, ascending.
func (s Stream) Events() []uint64 {
	seen := make(map[uint64]struct{})
	for _, el := range s {
		seen[el.Event] = struct{}{}
	}
	out := make([]uint64, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// Counts returns the total frequency of every event in the stream.
func (s Stream) Counts() map[uint64]int64 {
	m := make(map[uint64]int64)
	for _, el := range s {
		m[el.Event]++
	}
	return m
}

// Merge merges sorted streams into one sorted stream. It is a simple k-way
// merge; inputs must individually be sorted.
func Merge(streams ...Stream) Stream {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make(Stream, 0, total)
	idx := make([]int, len(streams))
	for {
		best := -1
		var bestTime int64
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			if best == -1 || s[idx[i]].Time < bestTime {
				best = i
				bestTime = s[idx[i]].Time
			}
		}
		if best == -1 {
			return out
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
}

// TimestampSeq is a single-event stream S_e: an ordered sequence of
// timestamps, possibly with duplicates (multiple mentions at one instant).
type TimestampSeq []int64

// Validate returns an error if the sequence is not non-decreasing.
func (ts TimestampSeq) Validate() error {
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return fmt.Errorf("%w: timestamp %d at index %d after %d",
				ErrOutOfOrder, ts[i], i, ts[i-1])
		}
	}
	return nil
}

// CountAtOrBefore returns the number of timestamps <= t, i.e. the exact
// cumulative frequency F(t). The sequence must be sorted.
func (ts TimestampSeq) CountAtOrBefore(t int64) int64 {
	return int64(sort.Search(len(ts), func(i int) bool { return ts[i] > t }))
}

// CountIn returns the number of timestamps in [t1, t2], i.e. the exact
// frequency f(t1, t2). The sequence must be sorted.
func (ts TimestampSeq) CountIn(t1, t2 int64) int64 {
	if t1 > t2 {
		return 0
	}
	return ts.CountAtOrBefore(t2) - ts.CountAtOrBefore(t1-1)
}

// ToStream lifts the sequence back into a Stream with the given event id.
func (ts TimestampSeq) ToStream(e uint64) Stream {
	s := make(Stream, len(ts))
	for i, t := range ts {
		s[i] = Element{Event: e, Time: t}
	}
	return s
}
