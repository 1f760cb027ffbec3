package dyadic

import (
	"math/rand"
	"sync"
	"testing"

	"histburst/internal/pbe"
	"histburst/internal/stream"
)

var (
	benchTreeOnce sync.Once
	benchTreeVal  *Tree
)

// benchTree builds (once) a K = 2^16 sketch tree with bursts planted across
// the id space, sized so the pruned search expands several deep branches.
func benchTree(b *testing.B) *Tree {
	b.Helper()
	benchTreeOnce.Do(func() {
		const k = 1 << 16
		f, steer := indexGammas(4)
		tr, err := New(k, CMPBELevels(3, 128, 17, f, steer))
		if err != nil {
			panic(err)
		}
		r := rand.New(rand.NewSource(19))
		var data stream.Stream
		var burstIDs []uint64
		for i := 0; i < 24; i++ {
			burstIDs = append(burstIDs, uint64(r.Intn(k)))
		}
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
		benchTreeVal = tr
	})
	return benchTreeVal
}

func BenchmarkBurstyEvents(b *testing.B) {
	tr := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.BurstyEvents(1049, 100, pbe.MustSpan(50), nil); err != nil {
			b.Fatal(err)
		}
	}
}
