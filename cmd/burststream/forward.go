package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"histburst/internal/stream"
)

// A forwarder replays the mapped stream to a burstd in batches, retrying
// transient failures (connection errors, load shedding, a server restarting
// or read-only) with jittered exponential backoff, stretched to the server's
// Retry-After hint when it gives one, so a replay client rides out server
// restarts instead of dying on the first refused connection. Every retry
// resends only what the server has not acknowledged. The transport is an
// appender: HTTP posts to /v1/append, HBP1 streams APPEND frames.
type forwarder struct {
	to    appender
	batch stream.Stream
	size  int

	retries int           // attempts per batch before giving up
	base    time.Duration // first backoff
	cap     time.Duration // backoff ceiling

	rng   *rand.Rand
	sleep func(time.Duration) // injection point for tests

	sent, posts, retried int64
}

// An appender delivers batches to a burstd over one transport.
type appender interface {
	// send delivers batch and returns how many of its leading elements the
	// server acknowledged. On failure it also returns the least wait the
	// server asked for before the next attempt (zero when it named none);
	// the error wraps errRejected when no attempt can succeed.
	send(batch stream.Stream) (acked int64, wait time.Duration, err error)
	// close releases the transport's connections after the final flush.
	close()
}

// errRejected marks a batch the server will never accept.
var errRejected = errors.New("rejected")

func forwardTo(to appender, batchSize int) *forwarder {
	return &forwarder{
		to:      to,
		size:    max(batchSize, 1),
		retries: 8,
		base:    100 * time.Millisecond,
		cap:     5 * time.Second,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		sleep:   time.Sleep,
	}
}

// add queues one element, flushing when the batch is full.
func (f *forwarder) add(e uint64, t int64) error {
	f.batch = append(f.batch, stream.Element{Event: e, Time: t})
	if len(f.batch) >= f.size {
		return f.flush()
	}
	return nil
}

// flush delivers the queued batch, retrying transient failures. Every
// attempt trims the acknowledged prefix first, so a refusal or a connection
// lost mid-batch never re-appends elements the server already committed.
func (f *forwarder) flush() error {
	rest := f.batch
	var (
		lastErr error
		wait    time.Duration
	)
	for attempt := 0; len(rest) > 0 && attempt < f.retries; attempt++ {
		if attempt > 0 {
			f.retried++
			f.sleep(f.backoff(attempt, wait))
		}
		acked, w, err := f.to.send(rest)
		// Clamp, so a buggy or hostile peer can never make the trim run past
		// the batch.
		acked = min(max(acked, 0), int64(len(rest)))
		f.sent += acked
		rest = rest[acked:]
		if err == nil {
			f.posts++
			rest = nil
			break
		}
		lastErr, wait = err, w
		if errors.Is(err, errRejected) {
			break
		}
	}
	if len(rest) > 0 {
		f.batch = rest
		return fmt.Errorf("forward %d elements: %w", len(rest), lastErr)
	}
	f.batch = f.batch[:0]
	return nil
}

// backoff returns the delay before the given retry attempt: exponential in
// the attempt number, capped, with ±50% jitter so a fleet of replay clients
// doesn't stampede a restarting server in lockstep — and never shorter than
// floor, the wait the server asked for.
func (f *forwarder) backoff(attempt int, floor time.Duration) time.Duration {
	d := f.base << (attempt - 1)
	if d > f.cap || d <= 0 {
		d = f.cap
	}
	return max(d/2+time.Duration(f.rng.Int63n(int64(d)+1)), floor)
}

func (f *forwarder) totals() (sent, posts, retried int64) { return f.sent, f.posts, f.retried }

// close tears down the transport after the final flush.
func (f *forwarder) close() { f.to.close() }

// newForwarder replays to a burstd's POST /v1/append URL.
func newForwarder(url string, batchSize int, client *http.Client) *forwarder {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return forwardTo(&httpAppender{url: url, client: client}, batchSize)
}

// httpAppender posts each batch whole: an HTTP append is all or nothing.
type httpAppender struct {
	url    string
	client *http.Client
}

type element struct {
	Event uint64 `json:"event"`
	Time  int64  `json:"time"`
}

func (h *httpAppender) send(batch stream.Stream) (int64, time.Duration, error) {
	elems := make([]element, len(batch))
	for i, el := range batch {
		elems[i] = element{Event: el.Event, Time: el.Time}
	}
	body, err := json.Marshal(map[string]any{"elements": elems})
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", errRejected, err)
	}
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err // connection refused/reset, timeout, DNS — retry
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //histburst:allow errdrop -- draining the body for connection reuse; the status code is the answer
	switch {
	case resp.StatusCode < 300:
		return int64(len(batch)), 0, nil
	case resp.StatusCode == http.StatusServiceUnavailable,
		resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode >= 500:
		return 0, retryAfter(resp.Header.Get("Retry-After")), fmt.Errorf("server busy: %s", resp.Status)
	default:
		return 0, 0, fmt.Errorf("%w: %s", errRejected, resp.Status)
	}
}

func (h *httpAppender) close() { h.client.CloseIdleConnections() }

// retryAfter reads a Retry-After header, delay-seconds or an HTTP date; zero
// when it is absent or unreadable.
func retryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(v); err == nil {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		return time.Until(at)
	}
	return 0
}
