package pbe2

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// dsFixture builds a deterministic downsample scenario: nParts time-disjoint
// parts of g member summaries each, arrivals scattered over the members, plus
// the exact combined staircase for invariant checks.
type dsFixture struct {
	parts   [][]*Summary
	times   []int64 // sorted arrival times of the combined stream
	lastT   int64
	total   int64
	gammaIn float64 // per-member gamma
}

func buildDSFixture(t testing.TB, seed int64, nParts, g, perPart int, gammaIn float64) *dsFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fx := &dsFixture{gammaIn: gammaIn}
	now := int64(rng.Intn(50))
	for p := 0; p < nParts; p++ {
		part := make([]*Builder, g)
		for m := range part {
			b, err := New(gammaIn)
			if err != nil {
				t.Fatal(err)
			}
			part[m] = b
		}
		for i := 0; i < perPart; i++ {
			// Bursty gaps: mostly dense, occasionally long quiet stretches.
			if rng.Intn(8) == 0 {
				now += int64(rng.Intn(200))
			}
			now += int64(rng.Intn(3))
			m := rng.Intn(g)
			part[m].Append(now)
			fx.times = append(fx.times, now)
			fx.total++
		}
		fx.parts = append(fx.parts, sealed(part...))
		now += 1 + int64(rng.Intn(5)) // strictly later next part
	}
	fx.lastT = now
	if n := len(fx.times); n > 0 {
		fx.lastT = fx.times[n-1]
	}
	return fx
}

// exactCount returns the true combined cumulative count at t.
func (fx *dsFixture) exactCount(t int64) int64 {
	return int64(sort.Search(len(fx.times), func(i int) bool { return fx.times[i] > t }))
}

// fedInstants replicates the candidate enumeration of the kernel: the
// instants where the output curve is guaranteed inside [F−γ, F].
func (fx *dsFixture) fedInstants(res int64) []int64 {
	var fed []int64
	lastFed := int64(-1 << 62)
	for k, part := range fx.parts {
		started := false
		partLast := int64(-1 << 62)
		for _, m := range part {
			if m.count > 0 {
				started = true
				if m.lastT > partLast {
					partLast = m.lastT
				}
			}
		}
		if !started {
			continue
		}
		capT := partLast
		for j := k + 1; j < len(fx.parts); j++ {
			pin := int64(1<<62 - 1)
			nextStarted := false
			for _, m := range fx.parts[j] {
				if m.count > 0 {
					nextStarted = true
					if m.firstStart < pin {
						pin = m.firstStart
					}
				}
			}
			if nextStarted {
				capT = pin
				break
			}
		}
		var cands []int64
		for _, m := range part {
			for _, s := range m.Segments() {
				cands = append(cands, alignUp(s.Start, res))
				if bp := s.End + 1; bp <= m.lastT {
					cands = append(cands, alignUp(bp, res))
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		for _, c := range cands {
			if c <= lastFed || c >= capT {
				continue
			}
			fed = append(fed, c)
			lastFed = c
		}
		if capT > lastFed {
			fed = append(fed, capT)
			lastFed = capT
		}
	}
	return fed
}

func TestDownsampleMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		seed           int64
		nParts, g, per int
		gammaIn, gamma float64
		res            int64
	}{
		{1, 1, 1, 200, 2, 4, 1},
		{2, 1, 2, 300, 2, 8, 4},
		{3, 4, 2, 250, 2, 8, 8},
		{4, 3, 4, 400, 1, 16, 16},
		{5, 6, 1, 100, 4, 4, 32},
		{6, 2, 3, 50, 2, 6, 2},
		{7, 5, 2, 1, 2, 4, 4}, // near-empty parts
	} {
		fx := buildDSFixture(t, tc.seed, tc.nParts, tc.g, tc.per, tc.gammaIn)
		var fast Builder
		if err := DownsampleInto(&fast, fx.parts, tc.gamma, tc.res); err != nil {
			t.Fatalf("seed %d: DownsampleInto: %v", tc.seed, err)
		}
		naive, err := downsampleNaive(fx.parts, tc.gamma, tc.res)
		if err != nil {
			t.Fatalf("seed %d: downsampleNaive: %v", tc.seed, err)
		}
		if fast.count != naive.count || fast.lastT != naive.lastT || fast.prevF != naive.prevF ||
			fast.gamma != naive.gamma || fast.outOfOrder != naive.outOfOrder {
			t.Fatalf("seed %d: counters diverge: fast{n=%d lastT=%d} naive{n=%d lastT=%d}",
				tc.seed, fast.count, fast.lastT, naive.count, naive.lastT)
		}
		fs, ns := fast.Segments(), naive.Segments()
		if len(fs) != len(ns) {
			t.Fatalf("seed %d: %d vs %d segments", tc.seed, len(fs), len(ns))
		}
		for i := range fs {
			if fs[i] != ns[i] {
				t.Fatalf("seed %d: segment %d diverges: %+v vs %+v",
					tc.seed, i, fs[i], ns[i])
			}
		}
	}
}

func TestDownsampleInvariantAtFedInstants(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		nParts int
		g      int
		gamma  float64
		res    int64
	}{
		{11, 3, 2, 8, 1},
		{12, 3, 2, 8, 8},
		{13, 5, 3, 12, 16},
		{14, 2, 4, 10, 64},
	} {
		fx := buildDSFixture(t, tc.seed, tc.nParts, tc.g, 300, 2)
		out, err := Downsample(fx.parts, tc.gamma, tc.res)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		fed := fx.fedInstants(tc.res)
		if len(fed) == 0 {
			t.Fatalf("seed %d: no fed instants", tc.seed)
		}
		for _, ft := range fed {
			got := out.Estimate(ft)
			exact := float64(fx.exactCount(ft))
			if got > exact+1e-6 || got < exact-tc.gamma-1e-6 {
				t.Fatalf("seed %d res %d: at fed t=%d estimate %.4f outside [F-γ, F] = [%.4f, %.4f]",
					tc.seed, tc.res, ft, got, exact-tc.gamma, exact)
			}
		}
		// Between fed instants the estimate is bracketed by the curve at the
		// surrounding fed instants (plus γ below): the time-resolution loss.
		rng := rand.New(rand.NewSource(tc.seed * 77))
		for i := 0; i+1 < len(fed); i++ {
			if fed[i+1] <= fed[i]+1 {
				continue
			}
			u := fed[i] + 1 + rng.Int63n(fed[i+1]-fed[i]-1)
			got := out.Estimate(u)
			lo := float64(fx.exactCount(fed[i])) - tc.gamma
			hi := float64(fx.exactCount(fed[i+1]))
			if got < lo-1e-6 || got > hi+1e-6 {
				t.Fatalf("seed %d res %d: between fed %d and %d, estimate(%d)=%.4f outside [%.4f, %.4f]",
					tc.seed, tc.res, fed[i], fed[i+1], u, got, lo, hi)
			}
		}
	}
}

func TestDownsampleExactAtFrontierAndBefore(t *testing.T) {
	fx := buildDSFixture(t, 21, 3, 2, 200, 2)
	out, err := Downsample(fx.parts, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Estimate(fx.lastT); got != float64(fx.total) {
		t.Fatalf("estimate at frontier = %v, want exact %d", got, fx.total)
	}
	if got := out.Estimate(fx.lastT + 1_000_000); got != float64(fx.total) {
		t.Fatalf("estimate past frontier = %v, want exact %d", got, fx.total)
	}
	first := fx.times[0]
	if got := out.Estimate(first - 2); got != 0 {
		t.Fatalf("estimate before first pin = %v, want 0", got)
	}
	if out.Count() != fx.total {
		t.Fatalf("Count = %d, want %d", out.Count(), fx.total)
	}
	if out.Gamma() != 8 {
		t.Fatalf("Gamma = %v, want 8", out.Gamma())
	}
}

// TestDownsampleChain promotes an already-downsampled summary again with a
// wider cap — the tier ladder — and checks the invariant composes.
func TestDownsampleChain(t *testing.T) {
	fx := buildDSFixture(t, 31, 4, 2, 250, 2)
	mid1, err := Downsample(fx.parts[:2], 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	mid2, err := Downsample(fx.parts[2:], 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Downsample([][]*Summary{{mid1.Seal()}, {mid2.Seal()}}, 20, 32)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != fx.total {
		t.Fatalf("chained count %d, want %d", out.Count(), fx.total)
	}
	if got := out.Estimate(fx.lastT); got != float64(fx.total) {
		t.Fatalf("chained frontier estimate %v, want %d", got, fx.total)
	}
	// The final curve must stay within the widest cap of the true staircase
	// at its own frontier-anchored fed instants; spot-check part boundaries.
	for _, ft := range []int64{mid1.lastT, out.lastT} {
		got := out.Estimate(ft)
		exact := float64(fx.exactCount(ft))
		if got > exact+1e-6 || got < exact-20-1e-6 {
			t.Fatalf("chained estimate at %d = %.4f outside [%.4f, %.4f]", ft, got, exact-20, exact)
		}
	}
}

func TestDownsampleRejectsBadInput(t *testing.T) {
	nb, _ := New(2)
	nb.Append(10)
	b := nb.Seal()
	nl, _ := New(2)
	nl.Append(5) // earlier than b's frontier
	later := nl.Seal()

	if _, err := Downsample(nil, 8, 4); err == nil {
		t.Fatal("accepted zero parts")
	}
	if _, err := Downsample([][]*Summary{{b}}, 8, 0); err == nil {
		t.Fatal("accepted resolution 0")
	}
	if _, err := Downsample([][]*Summary{{b, b}}, 2, 4); err == nil {
		t.Fatal("accepted gamma below summed source caps")
	}
	if _, err := Downsample([][]*Summary{{b}, {later}}, 8, 4); err == nil {
		t.Fatal("accepted overlapping time ranges")
	}
}

func TestDownsampleEmptyParts(t *testing.T) {
	nb, _ := New(2)
	empty := nb.Seal()
	out, err := Downsample([][]*Summary{{empty}, {empty}}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != 0 || out.headLow != math.MaxInt64 {
		t.Fatalf("empty downsample: count=%d head at %d", out.Count(), out.headLow)
	}
	if got := out.Estimate(123); got != 0 {
		t.Fatalf("empty downsample estimates %v", got)
	}
}

// TestDownsampleShrinksSegments pins the point of the exercise: coarser
// resolution and wider gamma must not grow the summary, and at realistic
// settings must shrink it.
func TestDownsampleShrinksSegments(t *testing.T) {
	fx := buildDSFixture(t, 41, 4, 1, 2000, 2)
	merged, err := MergeFinished([]*Summary{fx.parts[0][0], fx.parts[1][0], fx.parts[2][0], fx.parts[3][0]})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Downsample(fx.parts, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bytes() >= merged.Bytes() {
		t.Fatalf("downsample did not shrink: %d bytes vs merged %d", out.Bytes(), merged.Bytes())
	}
}

func benchDSParts(b *testing.B, nParts, g, perPart int) [][]*Summary {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	now := int64(0)
	var parts [][]*Summary
	for p := 0; p < nParts; p++ {
		part := make([]*Builder, g)
		for m := range part {
			nb, err := New(2)
			if err != nil {
				b.Fatal(err)
			}
			part[m] = nb
		}
		for i := 0; i < perPart; i++ {
			now += int64(rng.Intn(3))
			part[rng.Intn(g)].Append(now)
		}
		parts = append(parts, sealed(part...))
		now += 2
	}
	return parts
}

func BenchmarkPBE2Downsample(b *testing.B) {
	parts := benchDSParts(b, 4, 2, 4096)
	var out Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DownsampleInto(&out, parts, 16, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPBE2DownsampleNaive(b *testing.B) {
	parts := benchDSParts(b, 4, 2, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := downsampleNaive(parts, 16, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// downsampleNaive is the retained naive twin of DownsampleInto: the same
// constraint mathematics, but candidate instants are materialized, sorted
// and deduplicated per part, and sources are evaluated through the plain
// Estimate search instead of streaming cursors. Equivalence tests pin the
// two bit-identical.
func downsampleNaive(parts [][]*Summary, gamma float64, res int64) (*Builder, error) {
	if err := validateDownsample(parts, gamma, res); err != nil {
		return nil, err
	}
	out := new(Builder)
	out.reset(gamma)
	var base, total, globalLast, totalOOO int64
	anyStarted := false
	lastFed := int64(math.MinInt64)
	prevLast := int64(math.MinInt64)

	for k := range parts {
		part := parts[k]
		pin, partLast, count, gammaSum, ooo, started := partBounds(part)
		totalOOO += ooo
		if !started {
			continue
		}
		if anyStarted && pin < prevLast {
			out.rest()
			return nil, fmt.Errorf("pbe2: time ranges overlap (part ends at %d, next starts at %d)", prevLast, pin)
		}
		capT := partLast
		for j := k + 1; j < len(parts); j++ {
			nextPin, _, _, _, _, nextStarted := partBounds(parts[j])
			if nextStarted {
				capT = nextPin
				break
			}
		}
		slack := gamma - gammaSum

		var cands []int64
		for _, m := range part {
			for _, s := range m.Segments() {
				cands = append(cands, alignUp(s.Start, res))
				if bp := s.End + 1; bp <= m.lastT {
					cands = append(cands, alignUp(bp, res))
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		sBase := float64(base)
		for _, c := range cands {
			if c <= lastFed || c >= capT {
				continue
			}
			s := sBase
			for _, m := range part {
				s += m.Estimate(c)
			}
			out.feedRange(rpoint{t: c, hi: s, slack: slack})
			lastFed = c
		}
		if capT > lastFed {
			s := sBase
			for _, m := range part {
				s += m.Estimate(capT)
			}
			out.feedRange(rpoint{t: capT, hi: s, slack: slack})
			lastFed = capT
		}

		base += count
		total += count
		if partLast > globalLast {
			globalLast = partLast
		}
		prevLast = partLast
		anyStarted = true
	}

	out.closeWindow()
	out.count = total
	out.outOfOrder = totalOOO
	if anyStarted {
		out.lastT = globalLast
		out.prevF = total
	}
	out.rest()
	out.clip()
	return out, nil
}
