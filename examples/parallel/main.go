// Parallel: build the same summary with 1 worker and with GOMAXPROCS
// workers sharing the dyadic index's levels, then show both answer queries
// identically (the two detectors are byte-for-byte the same summary).
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"histburst"
	"histburst/internal/workload"
)

func main() {
	const n = 400_000
	spec := workload.OlympicRioSpec(1, n)
	data, err := workload.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	elems := make([]histburst.Element, len(data))
	for i, el := range data {
		elems[i] = histburst.Element{Event: el.Event, Time: el.Time}
	}
	opts := []histburst.Option{histburst.WithPBE2(8), histburst.WithSeed(7)}

	build := func(workers int) (*histburst.Detector, time.Duration) {
		start := time.Now()
		det, err := histburst.BuildParallel(workload.OlympicRioK, elems, workers, opts...)
		if err != nil {
			log.Fatal(err)
		}
		return det, time.Since(start)
	}

	seq, seqTime := build(1)
	workers := runtime.GOMAXPROCS(0)
	par, parTime := build(workers)

	fmt.Printf("elements:   %d\n", len(elems))
	fmt.Printf("sequential: %v\n", seqTime)
	fmt.Printf("parallel:   %v (%d workers, %.1fx speedup)\n",
		parTime, workers, float64(seqTime)/float64(parTime))

	// One summary, built two ways: the columns are equal.
	tau := workload.Day
	fmt.Println("\nday  b(soccer) sequential  b(soccer) parallel")
	for day := int64(16); day <= 22; day++ {
		at := day * workload.Day
		a, err := seq.Burstiness(workload.SoccerID, at, tau)
		if err != nil {
			log.Fatal(err)
		}
		b, _ := par.Burstiness(workload.SoccerID, at, tau) //histburst:allow errdrop -- same query just validated on the sequential detector
		fmt.Printf("%3d  %20.0f  %18.0f\n", day, a, b)
	}
	fmt.Printf("\nsizes: sequential %d B, parallel %d B\n", seq.Bytes(), par.Bytes())
}
