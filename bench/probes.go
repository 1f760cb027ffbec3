package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"histburst"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
)

// The layer probes time calls into each layer's public functions on the
// run's own data. They do not depend on the workload: they are the unit
// costs a workload's end-to-end numbers are made of.

// perCall calls fn for at least budget and returns the mean nanoseconds per
// call; for operations too short to time one by one.
func perCall(budget time.Duration, fn func()) float64 {
	n := 0
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			fn()
		}
		n += 64
		if el := time.Since(start); el >= budget {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// medianOf runs fn n times and returns the median duration in microseconds.
func medianOf(n int, fn func() error) (float64, error) {
	took := make([]float64, n)
	for i := range took {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		took[i] = micros(time.Since(t0))
	}
	return median(took), nil
}

const (
	probeBudget = 150 * time.Millisecond
	probeElems  = 200_000 // elements of the probes that build something
	probeBatch  = 256     // the ack-latency batch size of the workloads
)

// loadSegments loads the base store's segment files as plain detectors, in
// time order.
func loadSegments(baseDir string) ([]*histburst.Detector, error) {
	names, err := filepath.Glob(filepath.Join(baseDir, "seg-*.hbsk"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // ids are zero-padded and issued in time order
	dets := make([]*histburst.Detector, len(names))
	for i, name := range names {
		if dets[i], err = histburst.LoadFile(name); err != nil {
			return nil, err
		}
	}
	if len(dets) < 4 {
		return nil, fmt.Errorf("base store has %d segments, the probes need 4", len(dets))
	}
	return dets, nil
}

// probeLayers measures the unit costs and stores them in out.
func probeLayers(data *dataset, baseDir, scratch string, out map[string]float64) error {
	head := data.base[:min(probeElems, len(data.base))]

	// histburst: the facade over cmpbe/pbe2/dyadic/hash.
	det, err := histburst.New(sketchK, histburst.WithPBE2(sketchGamma))
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, el := range head {
		det.Append(el.Event, el.Time)
	}
	det.Finish()
	out["histburst.append_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(head))
	i := 0
	out["histburst.point_ns"] = perCall(probeBudget, func() {
		q := data.points[i%len(data.points)]
		det.Burstiness(q.e, q.t, queryTau) //histburst:allow errdrop -- tau is a positive constant
		i++
	})
	out["histburst.times_us"] = perCall(probeBudget, func() {
		c := data.times[i%len(data.times)]
		det.BurstyTimes(c.e, c.theta, queryTau) //histburst:allow errdrop -- tau is a positive constant
		i++
	}) / 1e3
	out["histburst.events_us"] = perCall(probeBudget, func() {
		c := data.events[i%len(data.events)]
		det.BurstyEvents(c.t, c.theta, queryTau) //histburst:allow errdrop -- tau is a positive constant
		i++
	}) / 1e3

	segs, err := loadSegments(baseDir)
	if err != nil {
		return err
	}
	us, err := medianOf(3, func() error { _, err := histburst.MergeDetectors(segs[:4]); return err })
	if err != nil {
		return err
	}
	out["histburst.merge_ms"] = us / 1e3
	us, err = medianOf(3, func() error {
		_, err := histburst.DownsampleDetectors(segs[:4], 2*sketchGamma, 60, 0)
		return err
	})
	if err != nil {
		return err
	}
	out["histburst.downsample_ms"] = us / 1e3
	saved := filepath.Join(scratch, "probe.hbsk")
	if us, err = medianOf(5, func() error { return segs[0].SaveFile(saved) }); err != nil {
		return err
	}
	out["histburst.save_ms"] = us / 1e3
	if us, err = medianOf(5, func() error { _, err := histburst.LoadFile(saved); return err }); err != nil {
		return err
	}
	out["histburst.load_ms"] = us / 1e3

	if err := probeSegstore(data, head, baseDir, scratch, out); err != nil {
		return err
	}

	// subscribe: the evaluator on the commit path, 64 queries armed.
	hub := subscribe.NewHub(subscribe.Config{})
	defer hub.Close()
	for s := 0; s < numSubs; s++ {
		if _, err := hub.Register(subscribe.Subscription{Events: []uint64{subscribedID(s)}, Theta: subTheta, Tau: subTau}); err != nil {
			return err
		}
	}
	pos := 0
	out["subscribe.evaluate_us"] = perCall(probeBudget, func() {
		if pos+probeBatch > len(data.base) {
			pos = 0
		}
		hub.Evaluate(data.base[pos : pos+probeBatch])
		pos += probeBatch
	}) / 1e3
	return nil
}

func probeSegstore(data *dataset, head stream.Stream, baseDir, scratch string, out map[string]float64) error {
	cfg := segstore.Config{K: sketchK, Gamma: sketchGamma, SealEvents: -1, CompactFanout: -1, ScrubInterval: -1}

	// Head insert alone: no WAL, no seal.
	noWAL := cfg
	noWAL.DisableWAL = true
	st, err := segstore.Open(filepath.Join(scratch, "probe-append"), noWAL)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < len(head); i += 4096 {
		if _, _, err := st.AppendBatch(head[i:min(i+4096, len(head))]); err != nil {
			st.Close() //histburst:allow errdrop -- the append error is the one to report
			return err
		}
	}
	out["segstore.append_ns_per_elem"] = float64(time.Since(t0).Nanoseconds()) / float64(len(head))
	if err := st.Close(); err != nil {
		return err
	}

	// The group-commit path with and without the fsync; the difference is
	// what durability costs per ack.
	commit := func(name string, policy segstore.WALSyncPolicy) (float64, float64, error) {
		c := cfg
		c.WALSync = policy
		st, err := segstore.Open(filepath.Join(scratch, name), c)
		if err != nil {
			return 0, 0, err
		}
		defer st.Close()
		stager := segstore.NewStager(st)
		pos, batch := 0, make(stream.Stream, probeBatch)
		us, err := medianOf(200, func() error {
			copy(batch, head[pos:pos+probeBatch]) // the stager takes ownership and sorts
			pos += probeBatch
			return stager.Append(batch).Err
		})
		return us, float64(st.Health().WAL.Bytes) / float64(pos), err
	}
	synced, walBytes, err := commit("probe-sync", segstore.WALSyncAlways)
	if err != nil {
		return err
	}
	unsynced, _, err := commit("probe-nosync", segstore.WALSyncOff)
	if err != nil {
		return err
	}
	out["segstore.commit_us"] = synced
	out["segstore.commit_nosync_us"] = unsynced
	out["segstore.wal_sync_us"] = synced - unsynced
	out["segstore.wal_bytes_per_elem"] = walBytes

	// Queries across the base store's segments, and opening it.
	probeDir := filepath.Join(scratch, "probe-open")
	if err := copyDir(baseDir, probeDir); err != nil {
		return err
	}
	readOnly := segstore.Config{CompactFanout: -1, DisableWAL: true, ScrubInterval: -1}
	var base *segstore.Store
	us, err := medianOf(3, func() error {
		if base != nil {
			if err := base.Close(); err != nil {
				return err
			}
		}
		var err error
		base, err = segstore.Open(probeDir, readOnly)
		return err
	})
	if err != nil {
		return err
	}
	defer base.Close()
	out["segstore.open_ms"] = us / 1e3
	out["segstore.snapshot_ns"] = perCall(probeBudget/3, func() { base.Snapshot() })
	sn := base.Snapshot()
	i := 0
	out["segstore.point_ns"] = perCall(probeBudget, func() {
		q := data.points[i%len(data.points)]
		sn.Burstiness(q.e, q.t, queryTau) //histburst:allow errdrop -- tau is a positive constant
		i++
	})
	out["segstore.times_us"] = perCall(probeBudget, func() {
		c := data.times[i%len(data.times)]
		sn.BurstyTimes(c.e, c.theta, queryTau) //histburst:allow errdrop -- tau is a positive constant
		i++
	}) / 1e3
	out["segstore.events_us"] = perCall(probeBudget, func() {
		c := data.events[i%len(data.events)]
		sn.BurstyEvents(c.t, c.theta, queryTau) //histburst:allow errdrop -- tau and theta are positive constants
		i++
	}) / 1e3
	for _, name := range []string{"probe-append", "probe-sync", "probe-nosync", "probe-open"} {
		os.RemoveAll(filepath.Join(scratch, name)) //histburst:allow errdrop -- scratch; removed with its parent anyway
	}
	return nil
}
