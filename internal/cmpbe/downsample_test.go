package cmpbe

import (
	"math/rand"
	"testing"
)

func buildDSSketches(t *testing.T, nParts, d, w int, gamma float64) ([]*Sketch, []int64, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var parts []*Sketch
	now := int64(0)
	var total int64
	for p := 0; p < nParts; p++ {
		s, err := New(d, w, 11, gamma)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			now += int64(rng.Intn(2))
			s.Append(uint64(rng.Intn(500)), now)
			total++
		}
		s.Finish()
		parts = append(parts, s)
		now += 2
	}
	counts := make([]int64, len(parts))
	for i, p := range parts {
		counts[i] = p.n
	}
	_ = counts
	return parts, counts, now - 2
}

// TestDownsampleSketchesNarrowing pins the width-divisor property: output
// cell (i, j) at the frontier must report exactly the summed counts of the
// source cells {(i, j + m·w')}, because each cell curve is exact at and past
// its own frontier.
func TestDownsampleSketchesNarrowing(t *testing.T) {
	const d, w, wOut = 3, 24, 8
	parts, _, maxT := buildDSSketches(t, 2, d, w, 2)
	out, err := DownsampleSketches(parts, 8, 4, wOut) // 24/8 = 3 members × γ2 ≤ 8
	if err != nil {
		t.Fatal(err)
	}
	if out.d != d || out.w != wOut {
		t.Fatalf("output dims %d×%d, want %d×%d", out.d, out.w, d, wOut)
	}
	var n int64
	for _, p := range parts {
		n += p.n
	}
	if out.n != n || out.maxT != maxT {
		t.Fatalf("counters n=%d maxT=%d, want %d/%d", out.n, out.maxT, n, maxT)
	}
	for i := 0; i < d; i++ {
		for j := 0; j < wOut; j++ {
			var want float64
			for _, p := range parts {
				for m := 0; m*wOut+j < w; m++ {
					want += p.cells[i*w+j+m*wOut].Estimate(maxT + 1)
				}
			}
			got := out.cells[i*wOut+j].Estimate(maxT + 1)
			if got != want {
				t.Fatalf("cell (%d,%d): frontier sum %.4f, want exact %.4f", i, j, got, want)
			}
		}
	}
	// Narrowed hashing must agree with (wide hash) mod w': every event's
	// estimate stays ≥ the per-cell floor of its true substream.
	for e := uint64(0); e < 64; e++ {
		for i := 0; i < d; i++ {
			wide := parts[0].hf.Hash(i, e)
			if narrow := out.hf.Hash(i, e); narrow != wide%wOut {
				t.Fatalf("hash row %d event %d: narrow cell %d != wide %d mod %d", i, e, narrow, wide, wOut)
			}
		}
	}
}

func TestDownsampleSketchesRejectsBadWidth(t *testing.T) {
	parts, _, _ := buildDSSketches(t, 1, 2, 24, 2)
	if _, err := DownsampleSketches(parts, 8, 4, 7); err == nil {
		t.Fatal("accepted non-divisor width")
	}
	if _, err := DownsampleSketches(parts, 8, 4, 0); err == nil {
		t.Fatal("accepted width 0")
	}
	if _, err := DownsampleSketches(parts, 2, 4, 8); err == nil {
		t.Fatal("accepted gamma below summed member caps")
	}
	if _, err := DownsampleSketches(nil, 8, 4, 8); err == nil {
		t.Fatal("accepted zero parts")
	}
}

func TestDownsampleDirectsPreservesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var parts []*Sketch
	now := int64(0)
	for p := 0; p < 3; p++ {
		d, err := NewDirect(16, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			now += int64(rng.Intn(2))
			d.Append(uint64(rng.Intn(16)), now)
		}
		d.Finish()
		parts = append(parts, d)
		now += 2
	}
	out, err := DownsampleSketches(parts, 6, 8, 4) // a width to narrow to, which the id space ignores
	if err != nil {
		t.Fatal(err)
	}
	if d, w := out.Dims(); !out.CollisionFree() || d != 1 || w != 16 || len(out.cells) != 16 {
		t.Fatalf("direct downsample changed id space: %d×%d, %d cells, collision-free %t", d, w, len(out.cells), out.CollisionFree())
	}
	for e := uint64(0); e < 16; e++ {
		var want float64
		for _, p := range parts {
			want += p.cells[e].Estimate(now)
		}
		if got := out.EstimateF(e, now); got != want {
			t.Fatalf("id %d: frontier estimate %.4f, want %.4f", e, got, want)
		}
	}
	// Downsampled cells are under the new cap (chainable).
	if g := out.cells[0].Gamma(); g != 6 {
		t.Fatalf("cell gamma %v, want 6", g)
	}
}
