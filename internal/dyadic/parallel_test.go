package dyadic

import (
	"math/rand"
	"testing"

	"histburst/internal/stream"
)

// TestParallelMatchesSequential fuzzes BurstyEventsParallel against
// BurstyEvents across worker counts, thresholds and instants: the outputs
// must be byte-identical (same ids, same ascending order) and the merged
// stats must count exactly the sequential work.
func TestParallelMatchesSequential(t *testing.T) {
	const k = 256
	data := burstyStream(11, k, 3000)
	tr, err := New(k, exactFactory)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range data {
		tr.Append(el.Event, el.Time)
	}
	tr.Finish()
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		ts := int64(r.Intn(3000))
		tau := int64(1 + r.Intn(120))
		theta := float64(1 + r.Intn(12))
		workers := 1 + r.Intn(16)
		var seqStats, parStats QueryStats
		want, err := tr.BurstyEvents(ts, theta, tau, &seqStats)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.BurstyEventsParallel(ts, theta, tau, workers, &parStats)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("ts=%d τ=%d θ=%v w=%d: got %v, want %v", ts, tau, theta, workers, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ts=%d τ=%d θ=%v w=%d: position %d differs: got %v, want %v",
					ts, tau, theta, workers, i, got, want)
			}
		}
		if parStats != seqStats {
			t.Fatalf("ts=%d τ=%d θ=%v w=%d: stats diverge: parallel %+v, sequential %+v",
				ts, tau, theta, workers, parStats, seqStats)
		}
	}
}

func TestParallelValidation(t *testing.T) {
	tr, _ := New(8, exactFactory)
	if _, err := tr.BurstyEventsParallel(10, 0, 5, 4, nil); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := tr.BurstyEventsParallel(10, -1, 5, 4, nil); err == nil {
		t.Error("negative theta accepted")
	}
}

// TestParallelLargeTreeSketchLevels runs the parallel search over a sketch
// tree at the K = 2^16 scale from the acceptance criterion — the goroutines
// here exercise real concurrent cmpbe reads under the race detector — and
// checks the parallel answer matches the sequential one exactly.
func TestParallelLargeTreeSketchLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("large tree build")
	}
	const k = 1 << 16
	f, steer := indexGammas(4)
	tr, err := New(k, CMPBELevels(3, 128, 17, f, steer))
	if err != nil {
		t.Fatal(err)
	}
	// Broad noise plus planted bursts on ids spread across the space so the
	// search expands several deep branches.
	r := rand.New(rand.NewSource(19))
	var data stream.Stream
	burstIDs := []uint64{5, 1 << 10, 1<<15 + 7, k - 2}
	for tm := int64(0); tm < 2000; tm++ {
		data = append(data, stream.Element{Event: uint64(r.Intn(k)), Time: tm})
		if tm >= 1000 && tm < 1100 {
			for _, e := range burstIDs {
				for j := 0; j < 6; j++ {
					data = append(data, stream.Element{Event: e, Time: tm})
				}
			}
		}
	}
	for _, el := range data {
		tr.Append(el.Event, el.Time)
	}
	tr.Finish()
	for _, workers := range []int{2, 4, 8} {
		var seqStats, parStats QueryStats
		want, err := tr.BurstyEvents(1049, 150, 50, &seqStats)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.BurstyEventsParallel(1049, 150, 50, workers, &parStats)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("w=%d: got %v, want %v", workers, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("w=%d: position %d differs: got %v, want %v", workers, i, got, want)
			}
		}
		if parStats != seqStats {
			t.Fatalf("w=%d: stats diverge: parallel %+v, sequential %+v", workers, parStats, seqStats)
		}
	}
}
