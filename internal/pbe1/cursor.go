package pbe1

import "histburst/internal/pbe"

// Fast-path query support: Estimate answers "the F of the last corner at or
// before t", where the corners are the summary followed by the buffered
// tail. The two regions concatenate into one virtually sorted point list —
// the buffer strictly follows the summary in time except that, right after a
// flush, the first buffered corner may share the summary's final timestamp
// with a larger F. Taking the LAST index with T ≤ t resolves that seam to
// the buffered (fresher) corner, exactly as Estimate's buffer-first branch
// does, so Estimate3 below agrees with Estimate everywhere.

var _ pbe.Estimator3 = (*Builder)(nil)

// numPoints returns the total corner count across summary and buffer.
func (b *Builder) numPoints() int { return len(b.summary) + len(b.buf) }

// pointF returns the i-th corner's cumulative frequency.
//
//histburst:noalloc
func (b *Builder) pointF(i int) int64 {
	if i < len(b.summary) {
		return b.summary[i].F
	}
	return b.buf[i-len(b.summary)].F
}

// Estimate3 evaluates F̃ at three ascending instants t0 ≤ t1 ≤ t2 in one
// narrowed pass: the corner answering t2 bounds the search for t1, which
// bounds the search for t0. Results are identical to three Estimate calls.
//
//histburst:noalloc
//histburst:fastpath Estimate
func (b *Builder) Estimate3(t0, t1, t2 int64) (f0, f1, f2 float64) {
	i2 := b.searchConcat(t2, b.numPoints())
	i1 := b.searchConcat(t1, i2+1)
	i0 := b.searchConcat(t0, i1+1)
	return b.pointValue(i0), b.pointValue(i1), b.pointValue(i2)
}

// searchConcat returns the largest i < hi whose corner time is ≤ t, or -1,
// by binary search. The buffer follows the summary in time, so the probe
// runs over exactly one region: the buffer when t reaches its first corner
// (which also resolves the seam tie to the buffer, as Estimate does), the
// summary otherwise.
//
//histburst:noalloc
func (b *Builder) searchConcat(t int64, hi int) int {
	ns := len(b.summary)
	if buf := b.buf; len(buf) > 0 && t >= buf[0].T {
		bh := hi - ns
		if bh > len(buf) {
			bh = len(buf)
		}
		lo := 0
		for lo < bh {
			mid := int(uint(lo+bh) >> 1)
			if buf[mid].T <= t {
				lo = mid + 1
			} else {
				bh = mid
			}
		}
		return ns + lo - 1
	}
	if hi > ns {
		hi = ns
	}
	lo := 0
	sum := b.summary
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sum[mid].T <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// pointValue maps a corner search result to the estimate (-1 = before the
// first corner, where F̃ is 0).
//
//histburst:noalloc
func (b *Builder) pointValue(i int) float64 {
	if i < 0 {
		return 0
	}
	return float64(b.pointF(i))
}
