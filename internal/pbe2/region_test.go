package pbe2

import (
	"fmt"
	"math/rand"
	"testing"

	"histburst/internal/geometry"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// feedNaive is the retained naive twin of region.feed: the same window
// machinery in the same window-local coordinates, but every constraint is
// clipped unconditionally through the allocating Clip, as Algorithm 2 is
// written. TestFeedMatchesNaive pins the two bit-identical.
func (r *region) feedNaive(p rpoint) (seg Segment, emitted bool) {
	if !r.open {
		if !r.pending {
			return r.roll(p)
		}
		if p.t == r.winStart {
			r.v0, r.slack0 = p.hi, p.slack
			return seg, false
		}
		u0, l0 := r.constraints(rpoint{t: r.winStart, hi: r.v0, slack: r.slack0})
		u1, l1 := r.constraints(p)
		poly, ok := geometry.BoundedIntersection([4]geometry.HalfPlane{u0, l0, u1, l1})
		if !ok || poly.Empty() {
			return r.roll(p)
		}
		r.poly, r.open, r.pending, r.winEnd = poly, true, false, p.t
		return seg, false
	}
	upper, lower := r.constraints(p)
	next := r.poly.Clip(upper).Clip(lower)
	if next.Empty() {
		return r.roll(p)
	}
	r.poly, r.winEnd = next, p.t
	return seg, false
}

// gapStream draws n arrivals with exponential gaps of the given mean,
// floored to ticks, starting at origin+1: a mean below 1 yields same-instant
// runs and t+1 neighbours, a large one long flat stretches.
func gapStream(seed int64, n int, meanGap float64, origin int64) stream.TimestampSeq {
	r := rand.New(rand.NewSource(seed))
	ts := make(stream.TimestampSeq, n)
	cur := origin + 1
	for i := range ts {
		cur += int64(r.ExpFloat64() * meanGap)
		ts[i] = cur
	}
	return ts
}

func TestFeedMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slack := float64(1 + rng.Intn(8))
		float := seed%2 == 0 // float ranges, as downsampling feeds them
		var fast, naive region
		var segsFast, segsNaive []Segment
		tick, f := int64(1.7e9), 0.0
		for i := 0; i < 20000; i++ {
			tick += 1 + int64(rng.ExpFloat64()*3)
			if float {
				f += rng.Float64() * 2
			} else {
				f += float64(rng.Intn(3))
			}
			p := rpoint{t: tick, hi: f, slack: slack}
			if s, ok := fast.feed(p); ok {
				segsFast = append(segsFast, s)
			}
			if s, ok := naive.feedNaive(p); ok {
				segsNaive = append(segsNaive, s)
			}
			vf, vn := fast.poly.Vertices(), naive.poly.Vertices()
			if len(vf) != len(vn) {
				t.Fatalf("seed %d step %d: %d vs %d vertices", seed, i, len(vf), len(vn))
			}
			for k := range vf {
				if vf[k] != vn[k] {
					t.Fatalf("seed %d step %d vertex %d: %v vs %v", seed, i, k, vf[k], vn[k])
				}
			}
		}
		if s, ok := fast.close(); ok {
			segsFast = append(segsFast, s)
		}
		if s, ok := naive.close(); ok {
			segsNaive = append(segsNaive, s)
		}
		if len(segsFast) != len(segsNaive) || len(segsFast) < 20 {
			t.Fatalf("seed %d: %d vs %d segments", seed, len(segsFast), len(segsNaive))
		}
		for i := range segsFast {
			if segsFast[i] != segsNaive[i] {
				t.Fatalf("seed %d segment %d: %+v vs %+v", seed, i, segsFast[i], segsNaive[i])
			}
		}
	}
}

// checkOneSided verifies F(t) − gamma ≤ est(t) ≤ F(t) at every integer
// instant of [lo, hi], with the upper side strict in float64 — the estimate
// exactly as computed may not exceed the true count by any margin. The
// lower side allows the rounding of one evaluation.
func checkOneSided(t *testing.T, what string, est func(int64) float64, ts stream.TimestampSeq, gamma float64, lo, hi int64) {
	t.Helper()
	i := 0
	for q := lo; q <= hi; q++ {
		for i < len(ts) && ts[i] <= q {
			i++
		}
		checkInstant(t, what, est(q), float64(i), gamma, q)
	}
}

func checkInstant(t *testing.T, what string, v, f, gamma float64, q int64) {
	t.Helper()
	if v > f {
		t.Fatalf("%s: overestimate at t=%d: F̃ = %v > F = %v (by %g)", what, q, v, f, v-f)
	}
	if v < f-gamma-1e-6 {
		t.Fatalf("%s: F̃ = %v below F − γ = %v − %v at t=%d", what, v, f, gamma, q)
	}
}

// TestOneSidedEveryInstant is the kernel's contract at the scales where it
// broke: every density, at small, Unix-second and Unix-millisecond time
// origins, at every integer instant of the history — on the open tail while
// building, after Finish, through MergeFinished and through Downsample.
func TestOneSidedEveryInstant(t *testing.T) {
	densities := []struct {
		meanGap float64
		n       int
	}{{0.3, 40000}, {3, 40000}, {20, 15000}, {500, 1000}}
	for _, origin := range []int64{0, 1.7e9, 1.7e12} {
		for _, d := range densities {
			for _, gamma := range []float64{1, 8} {
				t.Run(fmt.Sprintf("origin=%g/gap=%g/gamma=%g", float64(origin), d.meanGap, gamma), func(t *testing.T) {
					ts := gapStream(int64(d.meanGap*10)+int64(gamma), d.n, d.meanGap, origin)
					first, last := ts[0], ts[len(ts)-1]
					half := len(ts) / 2
					for ts[half] == ts[half-1] {
						half++ // partitions must be strictly time-disjoint
					}

					b, _ := New(gamma)
					for i, v := range ts {
						b.Append(v)
						if i%(len(ts)/8) == 0 {
							checkOneSided(t, "open tail", b.Estimate, ts[:i+1], gamma, b.headLow-1, v+1)
						}
					}
					checkOneSided(t, "before Finish", b.Estimate, ts, gamma, first-3, last+3)
					b.Finish()
					checkOneSided(t, "after Finish", b.Estimate, ts, gamma, first-3, last+3)

					left := buildPBE2(t, ts[:half], gamma)
					right := buildPBE2(t, ts[half:], gamma)
					parts := [][]*Summary{{left.Seal()}, {right.Seal()}}
					ds, err := Downsample(parts, 2*gamma, 1)
					if err != nil {
						t.Fatal(err)
					}
					// A downsampled curve is pinned at the instants the kernel
					// feeds — the sources' breakpoints — and trails F by the
					// count's rise in between.
					fx := dsFixture{parts: parts}
					for _, q := range fx.fedInstants(1) {
						checkInstant(t, "Downsample", ds.Estimate(q), float64(ts.CountAtOrBefore(q)), 2*gamma, q)
					}
					merged, err := mergeTwo(left, right)
					if err != nil {
						t.Fatal(err)
					}
					checkOneSided(t, "MergeFinished", merged.Estimate, ts, gamma, first-3, last+3)
				})
			}
		}
	}
}

// TestTranslationInvariant: the same gaps built at two time origins give the
// same windows and bit-equal slopes — the region never sees absolute time.
func TestTranslationInvariant(t *testing.T) {
	const shift = int64(1.7e9)
	for _, meanGap := range []float64{0.3, 3, 20, 500} {
		a := buildPBE2(t, gapStream(5, 20000, meanGap, 0), 8).Segments()
		b := buildPBE2(t, gapStream(5, 20000, meanGap, shift), 8).Segments()
		if len(a) != len(b) {
			t.Fatalf("gap %v: %d segments at origin 0, %d at %d", meanGap, len(a), len(b), shift)
		}
		for i := range a {
			if a[i].Start != b[i].Start-shift || a[i].End != b[i].End-shift || a[i].A != b[i].A {
				t.Fatalf("gap %v segment %d: %+v vs %+v", meanGap, i, a[i], b[i])
			}
		}
	}
}

// TestOneSidedOlympicSeed3 is the stream on which the benchmark's oracle
// caught the kernel overestimating (event 2 at t = 752361): per-event
// builders at the benchmark's γ, checked at every constrained instant.
func TestOneSidedOlympicSeed3(t *testing.T) {
	spec := workload.OlympicRioSpec(2016, 600_000)
	spec.Seed = 3
	base, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const gamma = 8
	for e := uint64(0); e < 32; e++ {
		ts := base.Filter(e)
		b := buildPBE2(t, ts, gamma)
		for i, v := range ts {
			if i+1 < len(ts) && ts[i+1] == v {
				continue // not the corner yet
			}
			// The corner, and the pre-rise instant of the next one.
			instants := []int64{v}
			if i+1 < len(ts) && ts[i+1] > v+1 {
				instants = append(instants, ts[i+1]-1)
			}
			f := float64(i + 1)
			for _, q := range instants {
				if est := b.Estimate(q); est > f || est < f-gamma-1e-6 {
					t.Fatalf("event %d: F̃(%d) = %v outside [F − γ, F] = [%v, %v]", e, q, est, f-gamma, f)
				}
			}
		}
	}
}
