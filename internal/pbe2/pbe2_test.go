package pbe2

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"histburst/internal/curve"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

func randomTimestamps(seed int64, n int, maxStep int) stream.TimestampSeq {
	r := rand.New(rand.NewSource(seed))
	ts := make(stream.TimestampSeq, n)
	cur := int64(1)
	for i := range ts {
		cur += int64(r.Intn(maxStep))
		ts[i] = cur
	}
	return ts
}

func buildPBE2(t testing.TB, ts stream.TimestampSeq, gamma float64) *Builder {
	t.Helper()
	b, err := New(gamma)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ts {
		b.Append(v)
	}
	b.Finish()
	return b
}

func TestNewValidation(t *testing.T) {
	for _, g := range []float64{0, 0.5, -3, math.NaN(), math.Inf(1)} {
		if _, err := New(g); err == nil {
			t.Errorf("gamma=%v accepted", g)
		}
	}
	b, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Gamma() != 2 {
		t.Fatalf("Gamma = %v", b.Gamma())
	}
}

// checkWithinGamma verifies F(t)−γ ≤ F̃(t) ≤ F(t) on every instant of
// [0, horizon+pad].
func checkWithinGamma(t *testing.T, b *Builder, exact curve.Staircase, horizon int64, gamma float64) {
	t.Helper()
	for q := int64(0); q <= horizon; q++ {
		est := b.Estimate(q)
		f := float64(exact.Value(q))
		if est > f+1e-6 {
			t.Fatalf("overestimate at t=%d: %v > %v", q, est, f)
		}
		if est < f-gamma-1e-6 {
			t.Fatalf("estimate below F−γ at t=%d: %v < %v−%v", q, est, f, gamma)
		}
	}
}

func TestWithinGammaEverywhere(t *testing.T) {
	for _, gamma := range []float64{1, 2, 5, 20} {
		ts := randomTimestamps(int64(gamma)+1, 2000, 4)
		exact, err := curve.FromTimestamps(ts)
		if err != nil {
			t.Fatal(err)
		}
		b := buildPBE2(t, ts, gamma)
		checkWithinGamma(t, b, exact, ts[len(ts)-1]+5, gamma)
	}
}

func TestWithinGammaProperty(t *testing.T) {
	f := func(seed int64, gseed uint8, step uint8) bool {
		gamma := float64(1 + int(gseed)%20)
		ts := randomTimestamps(seed, 300, 1+int(step)%8)
		exact, err := curve.FromTimestamps(ts)
		if err != nil {
			return false
		}
		b, err := New(gamma)
		if err != nil {
			return false
		}
		for _, v := range ts {
			b.Append(v)
		}
		b.Finish()
		horizon := ts[len(ts)-1] + 3
		for q := int64(0); q <= horizon; q++ {
			est := b.Estimate(q)
			f := float64(exact.Value(q))
			if est > f+1e-6 || est < f-gamma-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBurstinessWithin4Gamma(t *testing.T) {
	// Lemma 4: |b̃(t) − b(t)| ≤ 4γ for every t and τ.
	gamma := 5.0
	ts := randomTimestamps(77, 3000, 3)
	exact, _ := curve.FromTimestamps(ts)
	b := buildPBE2(t, ts, gamma)
	horizon := ts[len(ts)-1]
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		q := int64(r.Intn(int(horizon) + 10))
		tau := int64(1 + r.Intn(50))
		diff := pbe.Burstiness(b, q, pbe.MustSpan(tau)) - float64(exact.Burstiness(q, tau))
		if math.Abs(diff) > 4*gamma+1e-6 {
			t.Fatalf("burstiness error %v exceeds 4γ=%v at t=%d τ=%d", diff, 4*gamma, q, tau)
		}
	}
}

func TestQueriesBeforeFinish(t *testing.T) {
	b, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	ts := randomTimestamps(5, 500, 3)
	exact, _ := curve.FromTimestamps(ts)
	for i, v := range ts {
		b.Append(v)
		if i%50 == 0 {
			// Mid-stream queries stay within γ up to the frontier.
			for q := int64(0); q <= v; q += 7 {
				est := b.Estimate(q)
				f := float64(curveValuePrefix(exact, ts[:i+1], q))
				if est > f+1e-6 || est < f-3-1e-6 {
					t.Fatalf("mid-stream estimate out of range at t=%d after %d appends: est=%v F=%v", q, i+1, est, f)
				}
			}
		}
	}
}

// curveValuePrefix evaluates the exact F over only the first arrivals.
func curveValuePrefix(full curve.Staircase, prefix stream.TimestampSeq, t int64) int64 {
	return prefix.CountAtOrBefore(t)
}

func TestGammaSpaceTradeoff(t *testing.T) {
	// Larger γ must not need more segments (Figure 9a's trend).
	ts := randomTimestamps(9, 5000, 3)
	prev := 1 << 30
	for _, gamma := range []float64{1, 2, 5, 10, 50} {
		b := buildPBE2(t, ts, gamma)
		n := b.NumSegments()
		if n > prev {
			t.Fatalf("γ=%v uses %d segments, more than smaller γ (%d)", gamma, n, prev)
		}
		prev = n
	}
}

func TestCompressionActuallyHappens(t *testing.T) {
	// A perfectly linear arrival pattern collapses into very few segments.
	var ts stream.TimestampSeq
	for i := int64(1); i <= 5000; i++ {
		ts = append(ts, i)
	}
	b := buildPBE2(t, ts, 2)
	if b.NumSegments() > 3 {
		t.Fatalf("linear stream should compress to O(1) segments, got %d", b.NumSegments())
	}
	exact, _ := curve.FromTimestamps(ts)
	checkWithinGamma(t, b, exact, 5003, 2)
}

func TestOutOfOrderClamped(t *testing.T) {
	b, _ := New(2)
	b.Append(10)
	b.Append(4)
	if b.OutOfOrder() != 1 {
		t.Fatalf("OutOfOrder = %d", b.OutOfOrder())
	}
	b.Finish()
	if got := b.Estimate(10); got != 2 {
		t.Fatalf("Estimate(10) = %v, want 2", got)
	}
}

func TestAppendAfterFinish(t *testing.T) {
	b, _ := New(2)
	for _, v := range []int64{1, 5, 9} {
		b.Append(v)
	}
	b.Finish()
	b.Append(20)
	b.Append(20)
	b.Finish()
	b.Finish() // idempotent
	if got := b.Estimate(25); got != 5 {
		t.Fatalf("Estimate(25) = %v, want 5", got)
	}
	exact, _ := curve.FromTimestamps(stream.TimestampSeq{1, 5, 9, 20, 20})
	checkWithinGamma(t, b, exact, 25, 2)
}

func TestSameInstantAfterFinish(t *testing.T) {
	b, _ := New(2)
	b.Append(7)
	b.Finish()
	b.Append(7)
	b.Finish()
	if got := b.Estimate(7); got != 2 {
		t.Fatalf("Estimate(7) = %v, want 2", got)
	}
	if got := b.Estimate(6); got > 0+1e-9 {
		t.Fatalf("Estimate(6) = %v, want ≤ 0+γ band (F=0 ⇒ estimate 0)", got)
	}
}

func TestEmptyBuilder(t *testing.T) {
	b, _ := New(2)
	if got := b.Estimate(100); got != 0 {
		t.Fatalf("Estimate on empty = %v", got)
	}
	b.Finish()
	if got := b.Estimate(100); got != 0 {
		t.Fatalf("Estimate on empty after Finish = %v", got)
	}
	if b.Count() != 0 || b.NumSegments() != 0 || b.Bytes() != 0 {
		t.Fatal("empty builder should have zero state")
	}
}

func TestBurstyTimesWithinTolerance(t *testing.T) {
	// Intervals reported over the summary can only misjudge instants whose
	// exact burstiness is within 4γ of θ.
	gamma := 2.0
	ts := randomTimestamps(21, 2000, 2)
	exact, _ := curve.FromTimestamps(ts)
	b := buildPBE2(t, ts, gamma)
	horizon := ts[len(ts)-1]
	tau := int64(25)
	theta := 12.0
	sp := pbe.MustSpan(tau)
	ranges := pbe.BurstyTimes(b.Breakpoints(), func(q int64) float64 { return pbe.Burstiness(b, q, sp) }, theta, sp, horizon)
	for q := int64(0); q <= horizon; q++ {
		in := false
		for _, r := range ranges {
			if r.Contains(q) {
				in = true
				break
			}
		}
		exactB := float64(exact.Burstiness(q, tau))
		if in && exactB < theta-4*gamma-1e-6 {
			t.Fatalf("t=%d reported bursty but b=%v << θ=%v", q, exactB, theta)
		}
		if !in && exactB >= theta+4*gamma+1e-6 {
			t.Fatalf("t=%d missed though b=%v >> θ=%v", q, exactB, theta)
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	ts := randomTimestamps(13, 500, 3)
	b := buildPBE2(t, ts, 2)
	if b.wide != nil || b.float {
		t.Fatal("a stream of small ticks escaped a line or took float64 values")
	}
	if got, want := b.Bytes(), refBytes(b.Segments()); got != want || got >= 16*b.NumSegments() {
		t.Fatalf("Bytes = %d, want %d, under the 16 a segment of 32-bit fields", got, want)
	}
	// What Bytes counts is what the columns hold: Finish left no slack.
	if held := heldBytes(&b.summary); held != b.Bytes() {
		t.Fatalf("finished columns hold %d bytes, Bytes = %d", held, b.Bytes())
	}
	segs := b.Segments()
	if len(segs) != b.NumSegments() {
		t.Fatal("Segments length mismatch")
	}
	// Segments are time-ordered and non-overlapping.
	for i := 1; i < len(segs); i++ {
		if segs[i].Start <= segs[i-1].End && !(segs[i].Start == segs[i-1].End && segs[i].Start == segs[i].End) {
			if segs[i].Start <= segs[i-1].End {
				t.Fatalf("segments overlap: %v then %v", segs[i-1], segs[i])
			}
		}
	}
}

func TestBreakpointsSortedUnique(t *testing.T) {
	check := func(what string, b *Builder) {
		t.Helper()
		bps := b.Breakpoints()
		for i := 1; i < len(bps); i++ {
			if bps[i] <= bps[i-1] {
				t.Fatalf("%s: breakpoints not sorted/unique at %d: %v %v", what, i, bps[i-1], bps[i])
			}
		}
		want := map[int64]bool{b.lastT: true}
		for _, s := range b.Segments() {
			want[s.Start], want[s.End+1] = true, true
		}
		if len(bps) != len(want) {
			t.Fatalf("%s: %d breakpoints, want %d", what, len(bps), len(want))
		}
	}
	ts := randomTimestamps(29, 800, 3)
	open, _ := New(3)
	for _, v := range ts {
		open.Append(v)
	}
	check("open", open)
	b := buildPBE2(t, ts, 3)
	check("finished", b) // the frontier equals the last End
	// Resuming at the sealed frontier re-feeds that instant: the next
	// segment starts on its predecessor's End.
	last := ts[len(ts)-1]
	b.Append(last)
	b.Finish()
	check("resumed at the frontier", b)
	// A merged partition's virtual pin may coincide with the receiver's
	// frontier, likewise.
	other := buildPBE2(t, stream.TimestampSeq{last + 1, last + 1, last + 4}, 3)
	merged, err := mergeTwo(b, other)
	if err != nil {
		t.Fatal(err)
	}
	check("merged", merged)
}

func TestImplementsPBE(t *testing.T) {
	var _ pbe.PBE = (*Builder)(nil)
}
