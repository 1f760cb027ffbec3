package pbe1

import (
	"math/rand"
	"testing"

	"histburst/internal/curve"
	"histburst/internal/pbe"
	"histburst/internal/stream"
)

// randomTimestamps generates n sorted timestamps with duplicates.
func randomTimestamps(seed int64, n int) stream.TimestampSeq {
	r := rand.New(rand.NewSource(seed))
	ts := make(stream.TimestampSeq, n)
	cur := int64(1)
	for i := range ts {
		cur += int64(r.Intn(3)) // 1/3 chance of duplicate timestamp
		ts[i] = cur
	}
	return ts
}

func buildPBE1(t *testing.T, ts stream.TimestampSeq, bufferN, eta int, opts ...Option) *Builder {
	t.Helper()
	b, err := New(bufferN, eta, opts...)
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
	if _, err := New(10, 1); err == nil {
		t.Error("eta=1 accepted")
	}
	if _, err := New(5, 5); err == nil {
		t.Error("bufferN == eta accepted")
	}
	if _, err := New(5, 6); err == nil {
		t.Error("bufferN < eta accepted")
	}
	if _, err := New(10, 2); err != nil {
		t.Errorf("valid args rejected: %v", err)
	}
}

func TestBuilderNeverOverestimates(t *testing.T) {
	ts := randomTimestamps(1, 2000)
	exact, err := curve.FromTimestamps(ts)
	if err != nil {
		t.Fatal(err)
	}
	b := buildPBE1(t, ts, 100, 10)
	last := ts[len(ts)-1]
	for q := int64(0); q <= last+5; q++ {
		if est := b.Estimate(q); est > float64(exact.Value(q)) {
			t.Fatalf("overestimate at t=%d: %v > %d", q, est, exact.Value(q))
		}
	}
	if b.Count() != int64(len(ts)) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(ts))
	}
}

func TestBuilderExactWithFullBudget(t *testing.T) {
	// eta = bufferN−1 with a huge buffer keeps every corner: estimates are
	// exact everywhere.
	ts := randomTimestamps(2, 500)
	exact, _ := curve.FromTimestamps(ts)
	b := buildPBE1(t, ts, 100000, 99999)
	for q := int64(0); q <= ts[len(ts)-1]+3; q++ {
		if est := b.Estimate(q); est != float64(exact.Value(q)) {
			t.Fatalf("t=%d: est %v, exact %d", q, est, exact.Value(q))
		}
	}
	if b.AreaError() != 0 {
		t.Fatalf("AreaError = %d, want 0 (nothing compressed)", b.AreaError())
	}
}

func TestBuilderQueriesBeforeFinish(t *testing.T) {
	// Buffered tail must be answered exactly without Finish.
	b, err := New(1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{3, 3, 7, 9} {
		b.Append(v)
	}
	if got := b.Estimate(3); got != 2 {
		t.Errorf("Estimate(3) = %v, want 2", got)
	}
	if got := b.Estimate(8); got != 3 {
		t.Errorf("Estimate(8) = %v, want 3", got)
	}
	if got := b.Estimate(2); got != 0 {
		t.Errorf("Estimate(2) = %v, want 0", got)
	}
}

func TestBuilderAppendAfterFinish(t *testing.T) {
	b, _ := New(100, 4)
	b.Append(1)
	b.Finish()
	b.Append(5)
	b.Finish()
	if got := b.Estimate(5); got != 2 {
		t.Fatalf("Estimate(5) = %v, want 2", got)
	}
	b.Finish() // idempotent
	if got := b.Estimate(5); got != 2 {
		t.Fatalf("Estimate(5) after double Finish = %v, want 2", got)
	}
}

func TestBuilderAppendSameInstantAfterFinish(t *testing.T) {
	b, _ := New(100, 4)
	b.Append(7)
	b.Finish()
	b.Append(7) // same instant, empty buffer
	if got := b.Estimate(7); got != 2 {
		t.Fatalf("Estimate(7) = %v, want 2", got)
	}
}

func TestBuilderOutOfOrderClamped(t *testing.T) {
	b, _ := New(100, 4)
	b.Append(10)
	b.Append(5) // below frontier
	if b.OutOfOrder() != 1 {
		t.Fatalf("OutOfOrder = %d, want 1", b.OutOfOrder())
	}
	if got := b.Estimate(10); got != 2 {
		t.Fatalf("Estimate(10) = %v, want 2 (clamped arrival counted)", got)
	}
}

func TestBuilderChunkBoundaryContinuity(t *testing.T) {
	// Estimates between chunks equal the last corner of the earlier chunk.
	ts := stream.TimestampSeq{}
	for i := int64(1); i <= 50; i++ {
		ts = append(ts, i*10)
	}
	b := buildPBE1(t, ts, 10, 4)
	exact, _ := curve.FromTimestamps(ts)
	// At every corner time the last chunk point before it bounds below.
	for q := int64(0); q <= 520; q++ {
		est := b.Estimate(q)
		if est > float64(exact.Value(q)) {
			t.Fatalf("overestimate at %d", q)
		}
	}
	// The global last corner is always kept, so the total count is exact.
	if got := b.Estimate(505); got != 50 {
		t.Fatalf("final estimate %v, want 50", got)
	}
}

func TestBuilderNaiveDPMatchesCHT(t *testing.T) {
	ts := randomTimestamps(9, 1500)
	a := buildPBE1(t, ts, 120, 17)
	b := buildPBE1(t, ts, 120, 17, WithNaiveDP())
	if a.AreaError() != b.AreaError() {
		t.Fatalf("area error differs: CHT %d vs DP %d", a.AreaError(), b.AreaError())
	}
	for q := int64(0); q <= ts[len(ts)-1]; q += 7 {
		if a.Estimate(q) != b.Estimate(q) {
			t.Fatalf("estimates differ at t=%d: %v vs %v", q, a.Estimate(q), b.Estimate(q))
		}
	}
}

func TestBuilderBurstinessErrorBounded(t *testing.T) {
	// Lemma 1: expected burstiness error relates to Δ. Empirically the
	// observed max error must be bounded by 4× the max pointwise gap, and
	// the mean error should shrink as η grows.
	ts := randomTimestamps(33, 3000)
	exact, _ := curve.FromTimestamps(ts)
	horizon := ts[len(ts)-1]
	tau := int64(20)
	meanErr := func(eta int) float64 {
		b := buildPBE1(t, ts, 150, eta)
		var sum float64
		var cnt int
		for q := int64(0); q <= horizon; q += 3 {
			diff := pbe.Burstiness(b, q, pbe.MustSpan(tau)) - float64(exact.Burstiness(q, tau))
			if diff < 0 {
				diff = -diff
			}
			sum += diff
			cnt++
		}
		return sum / float64(cnt)
	}
	small := meanErr(5)
	large := meanErr(100)
	if large > small {
		t.Fatalf("mean error should shrink with eta: eta=5 → %.3f, eta=100 → %.3f", small, large)
	}
	if large > 1.0 {
		t.Fatalf("eta=100 of 150 corners should be near-exact, got mean error %.3f", large)
	}
}

func TestBuilderBurstyTimesLossless(t *testing.T) {
	// With a lossless summary, BurstyTimes must match the exact oracle.
	ts := randomTimestamps(4, 400)
	b := buildPBE1(t, ts, 100000, 99999)
	exact, _ := curve.FromTimestamps(ts)
	horizon := ts[len(ts)-1]
	tau := int64(10)
	theta := 3.0
	sp := pbe.MustSpan(tau)
	ranges := pbe.BurstyTimes(b.Breakpoints(), func(q int64) float64 { return pbe.Burstiness(b, q, sp) }, theta, sp, horizon)
	for q := int64(0); q <= horizon; q++ {
		want := float64(exact.Burstiness(q, tau)) >= theta
		got := false
		for _, r := range ranges {
			if r.Contains(q) {
				got = true
				break
			}
		}
		if got != want {
			t.Fatalf("t=%d: in-range=%v, want %v", q, got, want)
		}
	}
}

func TestBuilderBytesAndBreakpoints(t *testing.T) {
	ts := randomTimestamps(6, 1000)
	b := buildPBE1(t, ts, 100, 10)
	pts := b.Points()
	if got := b.Bytes(); got != 16*len(pts) {
		t.Fatalf("Bytes = %d, want %d", got, 16*len(pts))
	}
	bps := b.Breakpoints()
	if len(bps) != len(pts) {
		t.Fatalf("breakpoints %d != points %d", len(bps), len(pts))
	}
	for i := range bps {
		if bps[i] != pts[i].T {
			t.Fatalf("breakpoint %d = %d, want %d", i, bps[i], pts[i].T)
		}
	}
	// Compression actually happened: far fewer points than corners.
	exact, _ := curve.FromTimestamps(ts)
	if len(pts) >= exact.Len() {
		t.Fatalf("no compression: %d points vs %d corners", len(pts), exact.Len())
	}
}

func TestBuilderImplementsPBE(t *testing.T) {
	var _ pbe.PBE = (*Builder)(nil)
}
