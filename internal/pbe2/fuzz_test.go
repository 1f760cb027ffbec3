package pbe2

import (
	"testing"

	"histburst/internal/stream"
)

// fuzzOrigins are the time origins the one-sided contract is pinned at:
// small ticks, Unix seconds, Unix milliseconds.
var fuzzOrigins = [...]int64{0, 1.7e9, 1.7e12}

// FuzzPBE2OneSided builds a summary from fuzzer-chosen gaps at a
// fuzzer-chosen time origin and checks F − γ ≤ F̃ ≤ F — the upper side
// strictly — around every corner, on the open tail and after Finish.
func FuzzPBE2OneSided(f *testing.F) {
	for sel := range fuzzOrigins {
		f.Add(byte(sel), byte(7), []byte{1, 1, 0, 0, 3, 0x85, 2, 0, 0, 0, 9, 0xff, 1, 1, 1, 2, 0x90, 4})
		f.Add(byte(sel), byte(0), []byte{0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 1})
	}
	f.Fuzz(func(t *testing.T, sel, gsel byte, gaps []byte) {
		if len(gaps) == 0 || len(gaps) > 4096 {
			return
		}
		// The selector's low bits pick the origin, the rest nudge it.
		origin := fuzzOrigins[int(sel)%len(fuzzOrigins)] + int64(sel/3)*86_400
		gamma := float64(1 + gsel%16)
		ts := make(stream.TimestampSeq, len(gaps))
		cur := origin + 1
		for i, g := range gaps {
			gap := int64(g & 0x1f) // 0 … 31: same-instant runs and neighbours
			if g&0x80 != 0 {
				gap <<= 6 // up to 1984: long flat stretches
			}
			cur += gap
			ts[i] = cur
		}
		check := func(what string, b *Builder) {
			for i, v := range ts {
				next := v + 2
				if i+1 < len(ts) {
					next = ts[i+1]
				}
				// Pre-rise, corner, just after, mid-gap, pre-rise of the next.
				for _, q := range [...]int64{v - 1, v, v + 1, v + (next-v)/2, next - 1} {
					checkInstant(t, what, b.Estimate(q), float64(ts.CountAtOrBefore(q)), gamma, q)
				}
			}
		}
		b, err := New(gamma)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ts {
			b.Append(v)
		}
		check("open", b)
		b.Finish()
		check("finished", b)
	})
}
