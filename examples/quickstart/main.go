// Quickstart: ingest a small event stream once, then ask all three
// historical burstiness queries without ever storing the raw stream.
package main

import (
	"fmt"
	"log"
	"math"

	"histburst"
)

func main() {
	// A detector over an id space of 16 possible events. PBE-2 cells with
	// γ=4: every frequency estimate within 4 of the truth per summarized
	// stream, every burstiness estimate within 16.
	det, err := histburst.New(16, histburst.WithPBE2(4))
	if err != nil {
		log.Fatal(err)
	}

	// Ingest: event 7 ("earthquake") is quiet, then bursts at t≈1000;
	// event 2 ("weather") is frequent but steady — frequent ≠ bursty.
	for t := int64(0); t < 2000; t++ {
		det.Append(2, t) // one weather mention every tick
		if t >= 1000 && t < 1100 {
			for i := 0; i < 8; i++ {
				det.Append(7, t) // the earthquake outbreak
			}
		}
	}
	det.Finish()

	const tau = 100 // burst span: compare adjacent 100-tick windows

	// POINT QUERY: how bursty was each event mid-outbreak?
	b7, err := det.Burstiness(7, 1099, tau)
	if err != nil {
		log.Fatal(err)
	}
	b2, _ := det.Burstiness(2, 1099, tau) //histburst:allow errdrop -- same (t, tau) just validated for event 7 above
	// Round before printing: an estimate a hair below zero would print "-0".
	fmt.Printf("burstiness at t=1099: earthquake ≈ %.0f, weather ≈ %.0f\n", math.Round(b7)+0, math.Round(b2)+0)

	// BURSTY TIME QUERY: when did the earthquake burst?
	ranges, err := det.BurstyTimes(7, 400, tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("earthquake bursty (θ=400): %v\n", ranges)

	// BURSTY EVENT QUERY: what was bursting at t=1099?
	events, err := det.BurstyEvents(1099, 400, tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("events bursting at t=1099 (θ=400): %v\n", events)

	fmt.Printf("summary size: %d bytes for %d ingested elements\n", det.Bytes(), det.N())
}
