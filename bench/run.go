package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"histburst"
)

// windowResult is what the timed window of one run produced.
type windowResult struct {
	rec *recorder
	// active is how long each kind of op was part of a running phase; a
	// rate is the kind's count over this time.
	active [numKinds]time.Duration
	cpu    time.Duration // CPU the system under test consumed over the window
}

// runWindow runs the workload's phases over the timed window.
func (e *env) runWindow(window time.Duration) (*windowResult, error) {
	res := &windowResult{rec: &recorder{}}
	// The system under test is the burstd child, or this process itself on
	// the library surface.
	pid := os.Getpid()
	if e.srv != nil {
		pid = e.srv.pid()
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	for _, ph := range e.w.phases {
		rec, took := e.run.runPhase(ph.flows, time.Duration(ph.share*float64(window)))
		res.rec.merge(rec)
		var seen [numKinds]bool
		for _, f := range ph.flows {
			for _, o := range f.pattern {
				seen[o.kind] = true
			}
		}
		for k, on := range seen {
			if on {
				res.active[k] += took
			}
		}
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, e.explain(err)
	}
	res.cpu = cpu1 - cpu0
	return res, nil
}

// storeTotals is the server's own account of what it holds.
type storeTotals struct {
	elements   int64
	bytes      int64
	rejected   int64
	generation uint64 // seals + compactions + decays so far (servers only)
}

func (e *env) totals() (storeTotals, error) {
	if e.w.surface == "lib" {
		return storeTotals{elements: e.det.N(), bytes: int64(e.det.Bytes())}, nil
	}
	t, err := dialWire(e.srv.wireAddr)
	if err != nil {
		return storeTotals{}, err
	}
	defer t.close()
	st, err := t.c.Stats()
	if err != nil {
		return storeTotals{}, err
	}
	return storeTotals{elements: st.Elements, bytes: st.Bytes, rejected: st.OutOfOrder, generation: st.Generation}, nil
}

// verdict collects correctness findings; a run is correct when there are
// none.
type verdict struct{ problems []string }

func (v *verdict) addf(format string, args ...any) {
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// verify checks the outputs of the window against the oracle, the reference
// store and the alert log; verifyDurable, which kills the server, follows
// once nothing needs the live server any more.
func (e *env) verify(res *windowResult, v *verdict) error {
	if e.w.surface == "lib" {
		e.verifyOneSided(v)
	}
	if e.w.frozen {
		if err := e.verifyAgainstReference(res.rec, v); err != nil {
			return err
		}
	}
	if e.run.plan != nil {
		e.verifyAlerts(res.rec, v)
	}
	return nil
}

// verifyOneSided checks the paper's one-sided guarantee on the library
// surface: the estimated cumulative frequency never exceeds the true one.
func (e *env) verifyOneSided(v *verdict) {
	for _, q := range e.data.points {
		est := e.det.CumulativeFrequency(q.e, q.t)
		if truth := float64(e.data.oracle.CumFreq(q.e, q.t)); est > truth {
			v.addf("one-sided guarantee broken: F̃(%d, %d) = %v > F = %v", q.e, q.t, est, truth)
			return
		}
	}
}

// verifyAgainstReference compares every retained answer with the answer of
// a store opened in this process on the pristine base directory. The server
// only ever appended newer elements, so answers about the base history must
// agree bit for bit.
func (e *env) verifyAgainstReference(rec *recorder, v *verdict) error {
	ref, err := e.openReference()
	if err != nil {
		return fmt.Errorf("open reference store: %w", err)
	}
	defer ref.Close()
	tgt := snapshotTarget{store: ref}
	want := make([]float64, pointBatch)
	// A BURSTY-TIME scan runs to the store's frontier, which the trickle of
	// appends moves; only ranges that end two spans before the base frontier
	// are the same on both sides.
	settled := e.data.frontier - 2*queryTau
	for _, s := range rec.samples {
		switch s.kind {
		case opPoint:
			if err := tgt.point(e.data.points[s.idx:s.idx+pointBatch], want); err != nil {
				return err
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(s.point[i]) {
					v.addf("POINT %d: server %v, reference %v", s.idx+i, s.point[i], want[i])
					break
				}
			}
		case opTimes:
			ranges, err := tgt.times(e.data.times[s.idx])
			if err != nil {
				return err
			}
			got, exp := settledRanges(s.ranges, settled), settledRanges(ranges, settled)
			if !slices.Equal(got, exp) {
				v.addf("TIMES %d: server %v, reference %v", s.idx, got, exp)
			}
		case opEvents:
			ids, err := tgt.events(e.data.events[s.idx])
			if err != nil {
				return err
			}
			if int64(len(ids)) != intersectSorted(ids, s.ids) || len(ids) != len(s.ids) {
				v.addf("EVENTS %d: server %v, reference %v", s.idx, s.ids, ids)
			}
		}
	}
	return nil
}

func settledRanges(rs []histburst.TimeRange, limit int64) []histburst.TimeRange {
	n := 0
	for n < len(rs) && rs[n].End < limit {
		n++
	}
	return rs[:n]
}

// verifyAlerts requires an alert for every planted burst.
func (e *env) verifyAlerts(rec *recorder, v *verdict) {
	deadline := time.Now().Add(2 * time.Second)
	for _, p := range rec.planted {
		for {
			if _, ok := e.alerts.arrival(p.id); ok {
				break
			}
			if time.Now().After(deadline) {
				v.addf("planted burst on id %d raised no alert", p.id)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// verifyDurable SIGKILLs the server, restarts it on the same directory and
// requires every acknowledged element to still be there.
func (e *env) verifyDurable(v *verdict) error {
	before, err := e.totals()
	if err != nil {
		return e.explain(err)
	}
	if before.rejected != 0 {
		v.addf("server rejected %d elements as out of order", before.rejected)
	}
	want := int64(len(e.data.base)) + e.run.ackedTotal
	if before.elements != want {
		v.addf("server holds %d elements, acknowledged total is %d", before.elements, want)
	}
	if err := e.startServer(1); err != nil {
		return err
	}
	after, err := e.totals()
	if err != nil {
		return e.explain(err)
	}
	if after.elements < want {
		v.addf("after SIGKILL and restart the server holds %d elements, %d were acknowledged", after.elements, want)
	}
	return nil
}

// accuracy is how the system's answers compare with the exact oracle and
// what its summary costs in space.
type accuracy struct {
	pointAbsErr  float64 // mean |b̃ − b| over the fixed POINT set
	eventsF1     float64 // F1 of the BURSTY-EVENT answers against the oracle's
	bytesPerElem float64 // summary bytes in memory per element held
	// diskBytesPerElem is what the same history costs on disk.
	diskBytesPerElem float64
}

// accuracyPoints is how many queries of the POINT set the accuracy pass asks.
const accuracyPoints = 16384

// measureAccuracy asks a fixed set of queries once the store has come to
// rest and scores the answers against the oracle. It runs after the timed
// window, so what it sees is the history the workload left behind — decayed
// where the workload made it decay — and does not depend on how far a
// background compaction happened to be when a query arrived.
func (e *env) measureAccuracy() (accuracy, error) {
	if e.srv != nil && !e.w.frozen {
		if _, err := e.quiesce(); err != nil {
			return accuracy{}, err
		}
	}
	tgt := e.run.targets[0]
	var acc accuracy
	answers := make([]float64, pointBatch)
	n := min(accuracyPoints, len(e.data.points))
	for i := 0; i < n; i += pointBatch {
		qs := e.data.points[i : i+pointBatch]
		if err := tgt.point(qs, answers); err != nil {
			return accuracy{}, err
		}
		for j, q := range qs {
			acc.pointAbsErr += math.Abs(answers[j] - q.exact)
		}
	}
	acc.pointAbsErr /= float64(n)
	var tp, wrong int64
	for _, c := range e.data.events {
		ids, err := tgt.events(c)
		if err != nil {
			return accuracy{}, err
		}
		hit := intersectSorted(ids, c.exact)
		tp += hit
		wrong += int64(len(ids)) + int64(len(c.exact)) - 2*hit
	}
	if tp > 0 {
		acc.eventsF1 = 2 * float64(tp) / float64(2*tp+wrong)
	}
	tot, err := e.totals()
	if err != nil {
		return accuracy{}, err
	}
	acc.bytesPerElem = float64(tot.bytes) / float64(tot.elements)
	// On disk: the saved detector, or everything in the server's store
	// directory — segments, manifest and the write-ahead log of the head.
	onDisk, err := dirBytes(e.dir, "detector.hbsk")
	if e.srv != nil {
		onDisk, err = dirBytes(e.storeDir, "*")
	}
	if err != nil {
		return accuracy{}, err
	}
	acc.diskBytesPerElem = float64(onDisk) / float64(tot.elements)
	return acc, nil
}

// endToEnd derives the run-level metrics of one run: the gated end-to-end
// ones, and the three the noise study demoted, which the traced run reports
// under the run. prefix.
func (e *env) endToEnd(res *windowResult, setups []float64, acc accuracy) map[string]float64 {
	rec := res.rec
	p := func(k opKind, pct float64) float64 { return steadyPercentile(rec.lat[k], pct) }
	ingested, ingestTime := rec.acked[opAppend]+rec.acked[opBulk], res.active[opAppend]+res.active[opBulk]
	return map[string]float64{
		"setup_s":             median(setups),
		"restart_ms":          median(e.restartMs),
		"ingest_elems_per_s":  float64(ingested) / ingestTime.Seconds(),
		"append_p50_us":       p(opAppend, 50),
		"append_p90_us":       p(opAppend, 90),
		"cpu_us_per_op":       micros(res.cpu) / float64(rec.attempted),
		"point_qps":           float64(rec.answered) / res.active[opPoint].Seconds(),
		"point_p50_us":        p(opPoint, 50),
		"point_p90_us":        p(opPoint, 90),
		"times_p50_us":        p(opTimes, 50),
		"events_p50_us":       p(opEvents, 50),
		"point_abs_err":       acc.pointAbsErr,
		"events_f1":           acc.eventsF1,
		"bytes_per_elem":      acc.bytesPerElem,
		"disk_bytes_per_elem": acc.diskBytesPerElem,
	}
}
