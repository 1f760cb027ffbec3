package main

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
	"histburst/internal/wire"
)

// wireBackend fronts a real store for forwarder tests, mirroring how
// burstd implements the wire Backend seam.
type wireBackend struct {
	store  *segstore.Store
	stager *segstore.Stager
}

func newWireBackend(t *testing.T) *wireBackend {
	t.Helper()
	s, err := segstore.Open(t.TempDir(), segstore.Config{
		K: 64, Gamma: 2, Seed: 7, D: 3, W: 32, WALSync: segstore.WALSyncOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})
	return &wireBackend{store: s, stager: segstore.NewStager(s)}
}

func (b *wireBackend) Snapshot() *segstore.Snapshot { return b.store.Snapshot() }

func (b *wireBackend) Alerts() *subscribe.Hub { return nil }

func (b *wireBackend) Ingest(elems stream.Stream) wire.IngestResult {
	res := b.stager.Append(elems)
	if res.Err != nil {
		return wire.IngestResult{Err: res.Err}
	}
	return wire.IngestResult{
		Appended: res.Appended, Rejected: res.Rejected,
		Elements: b.store.N(), OutOfOrder: b.store.Rejected(),
	}
}

func (b *wireBackend) Stats() wire.Stats {
	sn := b.store.Snapshot()
	return wire.Stats{
		Elements: sn.N(), EventSpace: b.store.K(), MaxTime: sn.MaxTime(),
		Bytes: int64(sn.Bytes()), Generation: sn.Generation(), Segments: len(sn.Segments()),
	}
}

func serveWire(t *testing.T, b wire.Backend, window int64) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Backend: b, Window: window, Logf: func(string, ...any) {}}
	go srv.Serve(l) //histburst:allow errdrop -- listener closed by cleanup ends Serve
	t.Cleanup(func() {
		l.Close() //histburst:allow errdrop -- test teardown
		srv.Close()
	})
	return l.Addr().String()
}

func TestWireForwarderDeliversBatches(t *testing.T) {
	b := newWireBackend(t)
	addr := serveWire(t, b, 0)
	f := newWireForwarder(addr, 8)
	defer f.close()

	const n = 100
	for i := 0; i < n; i++ {
		if err := f.add(uint64(i%16), int64(i)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if err := f.flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	sent, posts, retried := f.totals()
	if sent != n {
		t.Fatalf("sent %d elements, want %d", sent, n)
	}
	if wantPosts := int64((n + 7) / 8); posts != wantPosts {
		t.Fatalf("posts %d, want %d", posts, wantPosts)
	}
	if retried != 0 {
		t.Fatalf("unexpected retries: %d", retried)
	}
	if got := b.store.N(); got != n {
		t.Fatalf("store holds %d elements, want %d", got, n)
	}
}

func TestWireForwarderRetriesDialFailures(t *testing.T) {
	b := newWireBackend(t)
	addr := serveWire(t, b, 0)
	f := newWireForwarder(addr, 4)
	defer f.close()
	f.sleep = func(time.Duration) {}
	failures := 2
	to := f.to.(*wireAppender)
	realDial := to.dial
	to.dial = func(a string) (*wire.Client, error) {
		if failures > 0 {
			failures--
			return nil, fmt.Errorf("synthetic dial failure")
		}
		return realDial(a)
	}

	for i := 0; i < 4; i++ {
		if err := f.add(uint64(i), int64(i)); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	_, _, retried := f.totals()
	if retried != 2 {
		t.Fatalf("retried %d times, want 2", retried)
	}
	if got := b.store.N(); got != 4 {
		t.Fatalf("store holds %d elements, want 4", got)
	}
}

// midNackBackend records every element the server commits while refusing
// one designated Ingest call, so tests can prove the forwarder's
// trim-and-retry around a mid-stream NACK never drops an unacked element.
type midNackBackend struct {
	*wireBackend
	refuse     int           // 1-based Ingest call to refuse; all others accept
	retryAfter time.Duration // the hint the refusal carries, as burstd's do

	mu    sync.Mutex
	calls int
	seen  map[int64]int // element time → times committed
}

func (b *midNackBackend) Ingest(elems stream.Stream) wire.IngestResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	if b.calls == b.refuse {
		return wire.IngestResult{Refused: wire.NackInternal, Message: "forced mid-stream refusal", RetryAfter: b.retryAfter}
	}
	for _, el := range elems {
		b.seen[el.Time]++
	}
	return wire.IngestResult{Appended: int64(len(elems)), Elements: int64(len(b.seen))}
}

func TestWireForwarderRetriesNackedMiddleChunk(t *testing.T) {
	// Chunk 2 of the first attempt is refused while chunk 3 behind it is
	// accepted: the client must report only the acked prefix (chunk 1), and
	// the forwarder's trim-and-retry must resend everything after it.
	b := &midNackBackend{wireBackend: newWireBackend(t), refuse: 2, seen: map[int64]int{}}
	addr := serveWire(t, b, 4) // 4-element window → a 12-element flush streams 3 chunks
	f := newWireForwarder(addr, 12)
	defer f.close()
	f.sleep = func(time.Duration) {}

	for i := 0; i < 12; i++ {
		if err := f.add(uint64(i%8), int64(100+i)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if len(f.batch) != 0 {
		t.Fatalf("%d elements left unflushed", len(f.batch))
	}
	// Nothing lost: every element — in particular refused chunk 2 (times
	// 104–107) — was eventually committed.
	for i := 0; i < 12; i++ {
		if b.seen[int64(100+i)] == 0 {
			t.Fatalf("element at time %d was never committed", 100+i)
		}
	}
	// The acked prefix was not resent: retrying chunk 1 would double-count.
	for i := 0; i < 4; i++ {
		if n := b.seen[int64(100+i)]; n != 1 {
			t.Fatalf("prefix element at time %d committed %d times, want exactly 1", 100+i, n)
		}
	}
	if _, _, retried := f.totals(); retried != 1 {
		t.Fatalf("retried %d times, want 1", retried)
	}
}

func TestWireForwarderGivesUpAfterRetries(t *testing.T) {
	f := newWireForwarder("unreachable", 2)
	f.sleep = func(time.Duration) {}
	f.retries = 3
	f.to.(*wireAppender).dial = func(string) (*wire.Client, error) {
		return nil, fmt.Errorf("synthetic dial failure")
	}
	if err := f.add(1, 1); err != nil {
		t.Fatalf("add below batch size flushed: %v", err)
	}
	err := f.add(2, 2)
	if err == nil || !strings.Contains(err.Error(), "synthetic dial failure") {
		t.Fatalf("want the dial failure surfaced, got %v", err)
	}
	if _, _, retried := f.totals(); retried != 2 {
		t.Fatalf("retried %d times, want 2", retried)
	}
}

func TestWireForwarderBackoffHonorsRetryAfter(t *testing.T) {
	b := &midNackBackend{wireBackend: newWireBackend(t), refuse: 1, retryAfter: 42 * time.Second, seen: map[int64]int{}}
	addr := serveWire(t, b, 0)
	f := newWireForwarder(addr, 1)
	defer f.close()
	f.rng = rand.New(rand.NewSource(1))
	var slept []time.Duration
	f.sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := f.add(1, 1); err != nil {
		t.Fatalf("the element did not get through the NACK: %v", err)
	}
	if len(slept) != 1 || slept[0] != 42*time.Second {
		t.Fatalf("backoffs %v after a NACK asking for 42s, want one of 42s", slept)
	}
	if d := f.backoff(1, 0); d > f.cap*3/2 {
		t.Fatalf("plain backoff %v beyond jittered cap", d)
	}
}
