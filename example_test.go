package histburst_test

import (
	"bytes"
	"fmt"
	"log"
	"math"

	"histburst"
)

// ExampleDetector demonstrates the three query types of the paper on a
// small stream: a steady "weather" event and an "earthquake" event that
// bursts at t=1000.
func ExampleDetector() {
	det, err := histburst.New(16, histburst.WithPBE2(1))
	if err != nil {
		log.Fatal(err)
	}
	for t := int64(0); t < 2000; t++ {
		det.Append(2, t) // weather: one mention every tick, steady
		if t >= 1000 && t < 1100 {
			for i := 0; i < 8; i++ {
				det.Append(7, t) // earthquake: a sharp outbreak
			}
		}
	}
	det.Finish()

	b7, _ := det.Burstiness(7, 1099, 100)
	b2, _ := det.Burstiness(2, 1099, 100)
	// Estimates are floats within the error cap: round before printing
	// (adding 0 turns a rounded −0 into 0).
	fmt.Printf("earthquake b=%.0f, weather b=%.0f\n", math.Round(b7)+0, math.Round(b2)+0)

	events, _ := det.BurstyEvents(1099, 400, 100)
	fmt.Printf("bursting: %v\n", events)

	// Output:
	// earthquake b=800, weather b=0
	// bursting: [7]
}

// ExampleSingle tracks one event with the lighter single-stream summary
// and persists it.
func ExampleSingle() {
	s, err := histburst.NewSingle(histburst.WithPBE2(1))
	if err != nil {
		log.Fatal(err)
	}
	for t := int64(0); t < 500; t++ {
		s.Append(t) // steady rate: no burst
	}
	s.Finish()
	b, _ := s.Burstiness(400, 100)
	fmt.Printf("steady stream burstiness ≈ %.0f\n", b)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		log.Fatal(err)
	}
	restored, err := histburst.LoadSingle(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored %d arrivals\n", restored.N())

	// Output:
	// steady stream burstiness ≈ 0
	// restored 500 arrivals
}
