package histburst

import (
	"bytes"
	"math/rand"
	"testing"
)

// buildDecayParts synthesizes nParts time-disjoint finished detectors over a
// shared config, returning them with the exact per-event cumulative counts
// and the stream frontier.
func buildDecayParts(t *testing.T, nParts int, opts ...Option) (parts []*Detector, exact map[uint64]int64, maxT int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	exact = make(map[uint64]int64)
	now := int64(0)
	const k = 256
	for p := 0; p < nParts; p++ {
		det, err := New(k, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			now += int64(rng.Intn(3))
			e := uint64(rng.Intn(40)) // dense head so counts are meaningful
			if rng.Intn(10) == 0 {
				e = uint64(rng.Intn(k))
			}
			det.Append(e, now)
			exact[e]++
		}
		det.Finish()
		parts = append(parts, det)
		now += 2 // strictly later next part: no shared boundary timestamp
	}
	return parts, exact, now - 2
}

func decayOpts() []Option {
	return []Option{WithSeed(7), WithSketchDims(3, 32), WithPBE2(2)}
}

func TestDownsampleDetectorsPreservesTotals(t *testing.T) {
	parts, exact, maxT := buildDecayParts(t, 3, decayOpts()...)
	ds, err := DownsampleDetectors(parts, 16, 8, 8) // fold 32→8 cells: min γ = 4·2
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, p := range parts {
		n += p.N()
	}
	if ds.N() != n {
		t.Fatalf("N = %d, want %d", ds.N(), n)
	}
	if ds.MaxTime() != maxT {
		t.Fatalf("MaxTime = %d, want %d", ds.MaxTime(), maxT)
	}
	p := ds.Params()
	if p.Gamma != 16 || p.W != 8 {
		t.Fatalf("Params report γ=%v w=%d, want γ=16 w=8", p.Gamma, p.W)
	}
	// At the frontier every cell curve reports its exact count, so the
	// estimate can only exceed truth through collisions — never undershoot.
	for e, want := range exact {
		got := ds.CumulativeFrequency(e, maxT)
		if got < float64(want) {
			t.Fatalf("event %d: frontier estimate %.2f below exact %d", e, got, want)
		}
		if got > float64(n) {
			t.Fatalf("event %d: frontier estimate %.2f above stream total %d", e, got, n)
		}
	}
}

func TestDownsampleDetectorsShrinksFootprint(t *testing.T) {
	parts, _, _ := buildDecayParts(t, 3, decayOpts()...)
	merged, err := MergeDetectors(parts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DownsampleDetectors(parts, 16, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Bytes() >= merged.Bytes()/2 {
		t.Fatalf("downsample saved too little: %d bytes vs merged %d", ds.Bytes(), merged.Bytes())
	}
}

func TestDownsampleDetectorsSaveLoadRoundTrip(t *testing.T) {
	parts, _, maxT := buildDecayParts(t, 2, decayOpts()...)
	ds, err := DownsampleDetectors(parts, 8, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if re.N() != ds.N() || re.MaxTime() != ds.MaxTime() {
		t.Fatalf("round-trip counters: n=%d/%d maxT=%d/%d", re.N(), ds.N(), re.MaxTime(), ds.MaxTime())
	}
	if rp, dp := re.Params(), ds.Params(); rp != dp {
		t.Fatalf("round-trip params %+v vs %+v", rp, dp)
	}
	for _, e := range []uint64{0, 3, 17, 39} {
		for _, ts := range []int64{0, maxT / 3, maxT / 2, maxT} {
			if got, want := re.CumulativeFrequency(e, ts), ds.CumulativeFrequency(e, ts); got != want {
				t.Fatalf("event %d t=%d: reloaded %.4f vs original %.4f", e, ts, got, want)
			}
		}
	}
	// Every level at the γ its height calls for under the tier's γ = 8 (the
	// decoder held the file to that too), and the dyadic index survives:
	// bursty-event search still runs.
	checkShape(t, ds)
	if _, err := re.BurstyEvents(maxT/2, 1, 64); err != nil {
		t.Fatalf("BurstyEvents on reloaded downsample: %v", err)
	}
}

func TestDownsampleDetectorsChained(t *testing.T) {
	parts, _, _ := buildDecayParts(t, 4, decayOpts()...)
	tier1a, err := DownsampleDetectors(parts[:2], 8, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	tier1b, err := DownsampleDetectors(parts[2:], 8, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	tier2, err := DownsampleDetectors([]*Detector{tier1a, tier1b}, 32, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, p := range parts {
		n += p.N()
	}
	if tier2.N() != n {
		t.Fatalf("chained N = %d, want %d", tier2.N(), n)
	}
	checkShape(t, tier2) // height 6 went 4·2 → 4·8 → 4·32 with its tiers
	if tier2.Bytes() >= tier1a.Bytes()+tier1b.Bytes() {
		t.Fatalf("tier promotion grew footprint: %d vs %d", tier2.Bytes(), tier1a.Bytes()+tier1b.Bytes())
	}
}

func TestDownsampleDetectorsMergesWithEqualFidelity(t *testing.T) {
	parts, _, _ := buildDecayParts(t, 4, decayOpts()...)
	a, err := DownsampleDetectors(parts[:2], 8, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DownsampleDetectors(parts[2:], 8, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeDetectors([]*Detector{a, b})
	if err != nil {
		t.Fatalf("equal-fidelity downsamples must merge: %v", err)
	}
	if merged.N() != a.N()+b.N() {
		t.Fatalf("merged N = %d, want %d", merged.N(), a.N()+b.N())
	}
}

func TestDownsampleDetectorsRejectsBadInput(t *testing.T) {
	parts, _, _ := buildDecayParts(t, 2, decayOpts()...)
	if _, err := DownsampleDetectors(nil, 8, 4, 16); err == nil {
		t.Fatal("accepted zero parts")
	}
	if _, err := DownsampleDetectors(parts, 8, 4, 7); err == nil {
		t.Fatal("accepted non-divisor width")
	}
	if _, err := DownsampleDetectors(parts, 3, 4, 8); err == nil {
		t.Fatal("accepted gamma below folded source error (32/8 × 2 = 8)")
	}
	if _, err := DownsampleDetectors(parts, 8, 0, 16); err == nil {
		t.Fatal("accepted resolution 0")
	}
	other, err := New(256, WithSeed(99), WithSketchDims(3, 32), WithPBE2(2))
	if err != nil {
		t.Fatal(err)
	}
	other.Finish()
	if _, err := DownsampleDetectors([]*Detector{parts[0], other}, 8, 4, 16); err == nil {
		t.Fatal("accepted mismatched configuration")
	}
}
