package main

import (
	"errors"
	"time"

	"histburst/internal/stream"
	"histburst/internal/wire"
)

// newWireForwarder replays over one persistent HBP1 connection to addr.
func newWireForwarder(addr string, batchSize int) *forwarder {
	return forwardTo(&wireAppender{
		addr: addr,
		dial: func(a string) (*wire.Client, error) {
			return wire.Dial(a, 10*time.Second)
		},
	}, batchSize)
}

// wireAppender streams each batch as APPEND frames. Where an HTTP append is
// all or nothing, the wire ack's acked-prefix contract tells the forwarder
// how much of a refused or interrupted batch the server committed.
type wireAppender struct {
	addr string
	c    *wire.Client
	dial func(string) (*wire.Client, error) // injection point for tests
}

func (w *wireAppender) send(batch stream.Stream) (int64, time.Duration, error) {
	if w.c == nil {
		c, err := w.dial(w.addr)
		if err != nil {
			return 0, 0, err
		}
		w.c = c
	}
	res, err := w.c.Append(batch)
	// The client promises Appended+Rejected is a contiguous acked prefix:
	// delivered, whether admitted or out of order.
	acked := res.Appended + res.Rejected
	var nack *wire.NackError
	switch {
	case err == nil:
	case errors.As(err, &nack):
		return acked, nack.RetryAfter, err
	default:
		// Connection-level failure: the client is dead, reconnect.
		w.c.Close() //histburst:allow errdrop -- connection already failed; the append error is the answer
		w.c = nil
	}
	return acked, 0, err
}

func (w *wireAppender) close() {
	if w.c != nil {
		w.c.Close() //histburst:allow errdrop -- replay finished, nothing in flight
		w.c = nil
	}
}
