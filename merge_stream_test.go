package histburst

import (
	"math/rand"
	"testing"

	"histburst/internal/stream"
)

// mergeParts builds the same three time-disjoint partition detectors on each
// call so the streaming kernel and the Clone+MergeAppend chain both get
// pristine sources.
func mergeParts(t *testing.T, opts ...Option) []*Detector {
	t.Helper()
	r := rand.New(rand.NewSource(23))
	var elems stream.Stream
	cur := int64(0)
	for i := 0; i < 6000; i++ {
		cur += int64(r.Intn(3))
		elems = append(elems, stream.Element{Event: uint64(r.Intn(128)), Time: cur})
	}
	c1, c2 := len(elems)/3, 2*len(elems)/3
	for c1 < len(elems) && elems[c1].Time == elems[c1-1].Time {
		c1++
	}
	for c2 < len(elems) && (c2 <= c1 || elems[c2].Time == elems[c2-1].Time) {
		c2++
	}
	parts := make([]*Detector, 0, 3)
	for _, p := range []stream.Stream{elems[:c1], elems[c1:c2], elems[c2:]} {
		det, err := New(128, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range p {
			det.Append(el.Event, el.Time)
		}
		det.Finish()
		parts = append(parts, det)
	}
	return parts
}

// TestMergeDetectorsMatchesMergeAppend pins the streaming detector merge
// bit-identical to the Clone+MergeAppend chain.
func TestMergeDetectorsMatchesMergeAppend(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"indexed", []Option{WithSeed(5), WithSketchDims(3, 32), WithPBE2(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parts := mergeParts(t, tc.opts...)
			nBefore := parts[2].N()
			fast, err := MergeDetectors(parts)
			if err != nil {
				t.Fatal(err)
			}
			if parts[2].N() != nBefore {
				t.Fatal("MergeDetectors mutated a source")
			}

			naiveParts := mergeParts(t, tc.opts...)
			naive, err := naiveParts[0].Clone()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range naiveParts[1:] {
				if err := naive.MergeAppend(p); err != nil {
					t.Fatal(err)
				}
			}

			if fast.N() != naive.N() || fast.MaxTime() != naive.MaxTime() ||
				fast.MinTime() != naive.MinTime() || fast.OutOfOrder() != naive.OutOfOrder() {
				t.Fatalf("counters: N %d/%d maxT %d/%d", fast.N(), naive.N(), fast.MaxTime(), naive.MaxTime())
			}
			for e := uint64(0); e < 128; e += 3 {
				for q := int64(0); q <= fast.MaxTime()+10; q += 97 {
					a, err := fast.Burstiness(e, q, 50)
					if err != nil {
						t.Fatal(err)
					}
					b, err := naive.Burstiness(e, q, 50)
					if err != nil {
						t.Fatal(err)
					}
					if a != b {
						t.Fatalf("Burstiness(%d,%d) = %v, MergeAppend chain gives %v", e, q, a, b)
					}
					if fa, fb := fast.CumulativeFrequency(e, q), naive.CumulativeFrequency(e, q); fa != fb {
						t.Fatalf("CumulativeFrequency(%d,%d) = %v vs %v", e, q, fa, fb)
					}
				}
			}
			if tc.name == "indexed" {
				fe, err := fast.BurstyEvents(fast.MaxTime()/2, 10, 50)
				if err != nil {
					t.Fatal(err)
				}
				ne, err := naive.BurstyEvents(naive.MaxTime()/2, 10, 50)
				if err != nil {
					t.Fatal(err)
				}
				if len(fe) != len(ne) {
					t.Fatalf("bursty events %v vs %v", fe, ne)
				}
				for i := range fe {
					if fe[i] != ne[i] {
						t.Fatalf("bursty events %v vs %v", fe, ne)
					}
				}
			}
		})
	}
}

func TestMergeDetectorsValidation(t *testing.T) {
	if _, err := MergeDetectors(nil); err == nil {
		t.Fatal("zero-part merge accepted")
	}
	a, _ := New(64, WithPBE2(2))
	b, _ := New(64, WithPBE2(4))
	if _, err := MergeDetectors([]*Detector{a, b}); err == nil {
		t.Fatal("config mismatch accepted")
	}
}
