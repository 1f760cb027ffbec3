package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"histburst"
	"histburst/internal/stream"
)

// opKind names what one operation does. Appends come in two roles: opAppend
// is the small batch whose acknowledgement latency is reported, opBulk the
// large batch that carries the bulk of an ingest workload's elements.
type opKind uint8

const (
	opPoint opKind = iota
	opTimes
	opEvents
	opAppend
	opBulk
	numKinds
)

var kindNames = [numKinds]string{"point", "times", "events", "append", "bulk"}

// op is one step of a flow's repeating pattern; n is the batch size of an
// append.
type op struct {
	kind opKind
	n    int
}

// flowSpec describes one client: which connection it uses, the pattern of
// operations it repeats, and its pacing — rate 0 is a closed loop (the next
// op is sent when the previous one completes), a positive rate an open loop
// on an absolute schedule of that many ops per second.
type flowSpec struct {
	conn    int
	pattern []op
	rate    float64
}

// phase is one stretch of a workload's timed window.
type phase struct {
	share float64 // of the window
	flows []flowSpec
}

// sample is one retained answer, kept for verification after the window.
type sample struct {
	kind   opKind
	idx    int // first index into the kind's query set
	point  []float64
	ranges []histburst.TimeRange
	ids    []uint64
}

// planted is one burst injected into the append stream on a subscribed id.
type planted struct {
	id   uint64
	sent time.Time // when the append carrying it was handed to the client
}

// recorder collects what one flow observed. Each flow owns one, so the hot
// path takes no lock; recorders are merged after the phase.
type recorder struct {
	lat       [numKinds][]float64 // µs per op, in completion order
	lag       []float64           // µs the generator started an op late (open loop)
	late      int64               // open-loop ops completing > lateLimit after they were due
	attempted int64
	failed    int64
	firstErr  error

	acked    [numKinds]int64 // elements acknowledged, by append role
	answered int64           // POINT queries answered
	samples  []sample
	planted  []planted
}

// lateLimit is the open-loop completion deadline past the due time.
const lateLimit = 50 * time.Millisecond

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		r.acked[k] += o.acked[k]
	}
	r.lag = append(r.lag, o.lag...)
	r.late += o.late
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.answered += o.answered
	r.samples = append(r.samples, o.samples...)
	r.planted = append(r.planted, o.planted...)
}

// note records one completed op. Closed-loop latency runs from the send.
// Open-loop latency adds the time the op had to queue behind the flow's
// previous op — free being when that one completed — which charges a stall
// to every request it delayed. What remains of the distance between due and
// send is the generator's own lateness (the kernel timer of a small VM ticks
// at 1 ms); it is reported as lag, not billed to the system.
func (r *recorder) note(k opKind, openLoop bool, due, free, sent, done time.Time) {
	lat := done.Sub(sent)
	if openLoop {
		ready := due
		if free.After(due) {
			lat += free.Sub(due)
			ready = free
		}
		r.lag = append(r.lag, micros(sent.Sub(ready)))
		if lat > lateLimit {
			r.late++
		}
	}
	r.lat[k] = append(r.lat[k], micros(lat))
}

// done stamps the completion of an op, records it and returns the stamp.
func (r *recorder) done(k opKind, openLoop bool, due, free, sent time.Time) time.Time {
	now := time.Now()
	r.note(k, openLoop, due, free, sent, now)
	return now
}

// Every sampleEvery-th answer of a kind is retained for verification.
var sampleEvery = [numKinds]int{opPoint: 16, opTimes: 4, opEvents: 4}

// plan is the plant schedule of the ingest workloads: a burst of plantSize
// elements on the next unused subscribed id every plantEvery elements.
type plan struct {
	ids   []uint64
	every int64
	next  int64 // element count at which the next burst is due
	used  int
}

const plantSize = 32

// runner executes flows against the targets of one workload.
type runner struct {
	data    *dataset
	targets []target
	cont    *continuation // the append source; one appender flow at a time uses it
	sent    int64         // elements taken from cont
	// ackedTotal counts every element acknowledged since set-up, warm-up
	// included: what the store must hold beyond the base history.
	ackedTotal int64
	plan       *plan // nil when no bursts are planted
	phases     int   // phases run so far
}

// queryStride spreads consecutive TIMES and EVENTS queries over their sets —
// which are ordered by popularity and by time — so that a flow too slow to
// cycle a whole set still asks a representative mix. It is coprime to the
// set sizes.
const queryStride = 37

// runPhase runs the flows concurrently for d and returns what they saw and
// how long the phase really took.
func (r *runner) runPhase(flows []flowSpec, d time.Duration) (*recorder, time.Duration) {
	recs := make([]*recorder, len(flows))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, f := range flows {
		recs[i] = &recorder{}
		// Each flow of each phase starts at its own fixed offset into the
		// query sets: two connections never ask the same thing at the same
		// moment, and what a flow asks does not depend on how fast the
		// flows before it ran.
		offset := i*7919 + r.phases*104729
		wg.Add(1)
		go func(f flowSpec, rec *recorder) {
			defer wg.Done()
			r.runFlow(f, rec, offset, start, deadline)
		}(f, recs[i])
	}
	wg.Wait()
	took := time.Since(start)
	r.phases++
	total := &recorder{}
	for _, rec := range recs {
		total.merge(rec)
	}
	r.ackedTotal += total.acked[opAppend] + total.acked[opBulk]
	return total, took
}

func (r *runner) runFlow(f flowSpec, rec *recorder, offset int, start, deadline time.Time) {
	tgt := r.targets[f.conn]
	var (
		answers  = make([]float64, pointBatch)
		batch    stream.Stream
		seq      [numKinds]int
		openLoop = f.rate > 0
		free     = start // when the flow's previous op completed
	)
	for i := 0; ; i++ {
		o := f.pattern[i%len(f.pattern)]
		due := time.Now()
		if openLoop {
			due = dueTime(start, i, f.rate)
		}
		if !due.Before(deadline) {
			return
		}
		if openLoop {
			waitUntil(due)
		}
		n := seq[o.kind]
		seq[o.kind]++
		keep := sampleEvery[o.kind] > 0 && n%sampleEvery[o.kind] == 0

		var err error
		sent := time.Now()
		switch o.kind {
		case opPoint:
			idx := (offset + n*pointBatch) % len(r.data.points)
			idx -= idx % pointBatch
			err = tgt.point(r.data.points[idx:idx+pointBatch], answers)
			free = rec.done(o.kind, openLoop, due, free, sent)
			if err == nil {
				rec.answered += pointBatch
				if keep {
					rec.samples = append(rec.samples, sample{kind: opPoint, idx: idx, point: append([]float64(nil), answers...)})
				}
			}
		case opTimes:
			idx := (offset + n*queryStride) % len(r.data.times)
			var ranges []histburst.TimeRange
			ranges, err = tgt.times(r.data.times[idx])
			free = rec.done(o.kind, openLoop, due, free, sent)
			if err == nil && keep {
				rec.samples = append(rec.samples, sample{kind: opTimes, idx: idx, ranges: ranges})
			}
		case opEvents:
			idx := (offset + n*queryStride) % len(r.data.events)
			var ids []uint64
			ids, err = tgt.events(r.data.events[idx])
			free = rec.done(o.kind, openLoop, due, free, sent)
			if err == nil && keep {
				rec.samples = append(rec.samples, sample{kind: opEvents, idx: idx, ids: ids})
			}
		case opAppend, opBulk:
			if cap(batch) < o.n {
				batch = make(stream.Stream, o.n)
			}
			batch = batch[:o.n]
			plantedID, isPlanted := r.fill(batch)
			sent = time.Now() // filling the batch is the generator's work, not the system's
			var appended, rejected int64
			appended, rejected, err = tgt.appendBatch(batch)
			free = rec.done(o.kind, openLoop, due, free, sent)
			if err == nil && (rejected != 0 || appended != int64(o.n)) {
				err = fmt.Errorf("append of %d: %d appended, %d rejected", o.n, appended, rejected)
			}
			if err == nil {
				rec.acked[o.kind] += appended
				if isPlanted {
					rec.planted = append(rec.planted, planted{id: plantedID, sent: sent})
				}
			}
		}
		rec.attempted++
		if err != nil {
			rec.fail(fmt.Errorf("%s: %w", kindNames[o.kind], err))
		}
	}
}

// fill takes the next len(batch) elements of the continuation. When a plant
// is due, the tail of the batch is a burst on a subscribed id at the batch's
// newest timestamp instead.
func (r *runner) fill(batch stream.Stream) (plantedID uint64, isPlanted bool) {
	n := len(batch)
	if p := r.plan; p != nil && r.sent >= p.next && p.used < len(p.ids) && n > plantSize {
		n -= plantSize
		isPlanted = true
		plantedID = p.ids[p.used]
		p.used++
		p.next += p.every
	}
	r.cont.next(batch[:n])
	r.sent += int64(n)
	for i := n; i < len(batch); i++ {
		batch[i] = stream.Element{Event: plantedID, Time: r.cont.now()}
	}
	return plantedID, isPlanted
}

// dueTime is when the i-th op of an open-loop flow is due: an absolute
// schedule, so a late op never pushes the following ones back.
func dueTime(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// spinWindow is how close to the due time the generator stops sleeping and
// starts yielding: the kernel's timer slack would otherwise add its own
// lateness to every op.
const spinWindow = 200 * time.Microsecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// intersectSorted counts the ids two ascending lists share.
func intersectSorted(a, b []uint64) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
