package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"histburst/internal/exact"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// Sketch and store shape shared by every workload. K covers the 864
// olympicrio ids and leaves ids sketchK-64 … sketchK-1 unused, which is where
// the standing queries of the ingest workloads are armed.
const (
	sketchK     = 1024
	sketchGamma = 8
	queryTau    = 86_400 // one day, the serving default

	pointBatch = 16 // POINT queries per op, on every surface

	scenarioSeed = 2016 // shapes the olympicrio profiles, the same for every run
)

// sizes scales the data with the run length so a -quick smoke stays short.
type sizes struct {
	baseN      int64 // expected base-stream elements
	sealEvents int64 // elements per tier-0 segment of the base store
	points     int   // POINT query set (a multiple of pointBatch)
	times      int   // BURSTY-TIME query set
	events     int   // BURSTY-EVENT query set
}

var (
	fullSizes  = sizes{baseN: 600_000, sealEvents: 50_000, points: 32768, times: 256, events: 256}
	quickSizes = sizes{baseN: 150_000, sealEvents: 25_000, points: 4096, times: 64, events: 64}
)

type pointCase struct {
	e     uint64
	t     int64
	exact float64 // oracle burstiness
}

type timesCase struct {
	e     uint64
	theta float64
}

type eventsCase struct {
	t     int64
	theta float64
	exact []uint64 // oracle answer, ascending
}

// dataset is everything derived from the seed alone: the base stream, the
// exact oracle over it and the fixed query sets with their oracle answers.
// All query instants lie inside the base history, so the oracle answers stay
// valid while a workload appends newer elements.
type dataset struct {
	base     stream.Stream
	frontier int64 // newest base timestamp
	oracle   *exact.Store
	points   []pointCase
	times    []timesCase
	events   []eventsCase
}

func newDataset(seed int64, sz sizes) (*dataset, error) {
	// The scenario — which events exist, how popular they are, when they
	// burst — is fixed; the seed drives the arrivals drawn from it and the
	// queries asked. Runs with different seeds then measure the same kind of
	// month, not easier and harder ones.
	spec := workload.OlympicRioSpec(scenarioSeed, sz.baseN)
	spec.Seed = seed
	base, err := workload.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate base stream: %w", err)
	}
	oracle, err := exact.FromStream(base)
	if err != nil {
		return nil, fmt.Errorf("build oracle: %w", err)
	}
	d := &dataset{base: base, frontier: base[len(base)-1].Time, oracle: oracle}
	rng := rand.New(rand.NewSource(seed ^ 0x62656e6368))
	// Events are drawn by picking a random element, so popular events are
	// asked about in proportion to their volume — the queries a user of a
	// trending-topics history would issue.
	pickEvent := func() uint64 { return base[rng.Intn(len(base))].Event }
	pickTime := func() int64 { return 2*queryTau + rng.Int63n(d.frontier-2*queryTau) }

	d.points = make([]pointCase, sz.points)
	for i := range d.points {
		e, t := pickEvent(), pickTime()
		d.points[i] = pointCase{e: e, t: t, exact: float64(oracle.Burstiness(e, t, queryTau))}
	}
	// θ scales with the stream so the same share of (event, instant) pairs
	// counts as bursty at every size.
	theta := float64(sz.baseN) / 5000
	// A BURSTY-TIME scan costs what the event's curve is long and a
	// BURSTY-EVENT search what the instant is busy, and both vary by orders
	// of magnitude. Which events and instants are asked about is therefore
	// fixed — the sz.times most popular ids (the scenario numbers them by
	// popularity) and an even grid over the month — so that every seed
	// measures the same mix of cheap and dear queries.
	d.times = make([]timesCase, sz.times)
	for i := range d.times {
		d.times[i] = timesCase{e: uint64(i), theta: theta}
	}
	d.events = make([]eventsCase, sz.events)
	span := d.frontier - 2*queryTau
	for i := range d.events {
		t := 2*queryTau + span*int64(i)/int64(sz.events)
		d.events[i] = eventsCase{t: t, theta: theta, exact: oracle.BurstyEvents(t, int64(theta), queryTau)}
	}
	return d, nil
}

// continuation yields the stream appended during a run: the base month
// replayed again and again, each replay shifted past the previous one, so
// timestamps keep rising and every append is in order. It costs nothing to
// generate, which keeps set-up short.
type continuation struct {
	base  stream.Stream
	span  int64 // time shift per replay
	pos   int
	cycle int64
}

func (d *dataset) continuation() *continuation {
	return &continuation{base: d.base, span: d.frontier + 1, cycle: 1}
}

// next fills dst with the following len(dst) elements.
func (c *continuation) next(dst stream.Stream) {
	for i := range dst {
		if c.pos == len(c.base) {
			c.pos = 0
			c.cycle++
		}
		el := c.base[c.pos]
		dst[i] = stream.Element{Event: el.Event, Time: el.Time + c.cycle*c.span}
		c.pos++
	}
}

// now is the timestamp of the most recently yielded element.
func (c *continuation) now() int64 {
	if c.pos == 0 {
		return c.cycle * c.span
	}
	return c.base[c.pos-1].Time + c.cycle*c.span
}

// buildBaseStore ingests the base stream into a fresh segment store at dir
// and closes it: a reproducible directory of tier-0 segments, no compaction,
// no decay, no WAL — the history every server workload starts from.
func buildBaseStore(dir string, d *dataset, sz sizes) error {
	st, err := segstore.Open(dir, segstore.Config{
		K: sketchK, Gamma: sketchGamma, SealEvents: sz.sealEvents,
		CompactFanout: -1, DisableWAL: true, ScrubInterval: -1,
	})
	if err != nil {
		return fmt.Errorf("open base store: %w", err)
	}
	for i := 0; i < len(d.base); i += 4096 {
		j := min(i+4096, len(d.base))
		_, rejected, err := st.AppendBatch(d.base[i:j])
		if err != nil || rejected != 0 {
			st.Close() //histburst:allow errdrop -- already failing; the append error is the one to report
			return fmt.Errorf("base store append: rejected %d, err %v", rejected, err)
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("close base store: %w", err)
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

// copyFile copies one store file; they are a megabyte at most.
func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// dirBytes sums the sizes of the regular files directly inside dir whose
// names match the glob pattern.
func dirBytes(dir, pattern string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if errors.Is(err, os.ErrNotExist) {
			continue // a live store's compactor removed it since the glob
		}
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total, nil
}
