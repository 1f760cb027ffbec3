package pbe1

import (
	"math/rand"
	"testing"
)

func TestCompressToErrorRespectsCap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		pts := randomCorners(r, 30+r.Intn(40))
		for _, cap := range []int64{0, 10, 100, 1000, 100000} {
			sel, e, err := CompressToError(pts, cap)
			if err != nil {
				t.Fatal(err)
			}
			if e > cap {
				t.Fatalf("cap %d violated: error %d", cap, e)
			}
			if len(sel) < 2 && len(pts) >= 2 {
				t.Fatalf("selection too small: %d", len(sel))
			}
		}
	}
}

func TestCompressToErrorIsMinimal(t *testing.T) {
	// The returned budget must be the smallest sufficient one: one fewer
	// point must violate the cap.
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		pts := randomCorners(r, 25)
		cap := int64(50 + r.Intn(500))
		sel, e, err := CompressToError(pts, cap)
		if err != nil {
			t.Fatal(err)
		}
		if e > cap {
			t.Fatalf("cap violated: %d > %d", e, cap)
		}
		if len(sel) > 2 && len(sel) < len(pts) {
			_, smaller, err := CompressCHT(pts, len(sel)-1)
			if err != nil {
				t.Fatal(err)
			}
			if smaller <= cap {
				t.Fatalf("budget %d not minimal: %d points already achieve %d ≤ %d",
					len(sel), len(sel)-1, smaller, cap)
			}
		}
	}
}

func TestCompressToErrorEdgeCases(t *testing.T) {
	if _, _, err := CompressToError(nil, -1); err == nil {
		t.Error("negative cap accepted")
	}
	sel, e, err := CompressToError(nil, 10)
	if err != nil || len(sel) != 0 || e != 0 {
		t.Errorf("empty input: %v %d %v", sel, e, err)
	}
	r := rand.New(rand.NewSource(1))
	pts := randomCorners(r, 20)
	// Cap 0 must reproduce the curve exactly.
	sel, e, err = CompressToError(pts, 0)
	if err != nil || e != 0 {
		t.Fatalf("cap 0: e=%d err=%v", e, err)
	}
	exact, _, _ := CompressCHT(pts, len(pts))
	if len(sel) > len(exact) {
		t.Fatalf("cap 0 selection larger than input: %d", len(sel))
	}
}

func TestBuilderWithErrorCap(t *testing.T) {
	if _, err := NewWithErrorCap(2, 10); err == nil {
		t.Error("bufferN=2 accepted")
	}
	if _, err := NewWithErrorCap(100, -1); err == nil {
		t.Error("negative cap accepted")
	}
	ts := randomTimestamps(5, 3000)
	b, err := NewWithErrorCap(300, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ts {
		b.Append(v)
	}
	b.Finish()
	if cap, ok := b.ErrorCap(); !ok || cap != 500 {
		t.Fatalf("ErrorCap = %d,%v", cap, ok)
	}
	// Per-chunk cap: total error ≤ cap × chunks.
	chunks := int64(len(ts)/300 + 1)
	if b.AreaError() > 500*chunks {
		t.Fatalf("area error %d exceeds %d", b.AreaError(), 500*chunks)
	}
	// Still never overestimates.
	for q := int64(0); q <= ts[len(ts)-1]; q += 17 {
		if b.Estimate(q) > float64(ts.CountAtOrBefore(q)) {
			t.Fatalf("overestimate at %d", q)
		}
	}
	// Tighter caps need at least as much space.
	loose, _ := NewWithErrorCap(300, 5000)
	for _, v := range ts {
		loose.Append(v)
	}
	loose.Finish()
	if loose.Bytes() > b.Bytes() {
		t.Fatalf("loose cap used more space: %d > %d", loose.Bytes(), b.Bytes())
	}
}
