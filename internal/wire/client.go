package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"histburst"
	"histburst/internal/binenc"
	"histburst/internal/pbe"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
)

// ErrClosed reports an operation on a closed client.
var ErrClosed = errors.New("wire: client closed")

// DefaultChunk is the element count one streamed APPEND frame carries when
// the caller's batch is larger: small enough that many chunks pipeline
// inside the credit window (so acks overlap transmission), large enough
// that the per-frame overhead stays negligible.
const DefaultChunk = 4096

// Client is an HBP1 connection. It is safe for concurrent use: requests are
// pipelined over the single connection and matched to responses by id, so
// many goroutines can have calls in flight at once.
type Client struct {
	conn  net.Conn
	hello Hello

	wmu sync.Mutex // serializes frame writes and id assignment
	bw  *bufio.Writer
	nid uint64

	pmu     sync.Mutex // guards pending and err
	pending map[uint64]chan []byte
	err     error // sticky transport error; set once by the reader

	cmu     sync.Mutex // guards credits
	ccond   *sync.Cond
	credits int64

	// alerts buffers unsolicited ALERT frames for the caller to drain via
	// Alerts().Pop — same bounded drop-oldest discipline as every other
	// subscriber channel, so an application that subscribes but never drains
	// cannot wedge the read loop.
	alerts *subscribe.Queue
}

// Dial connects to an HBP1 server, performs the handshake, and starts the
// response reader.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn)
	if err != nil {
		conn.Close() //histburst:allow errdrop -- handshake failed; nothing to recover
		return nil, err
	}
	return c, nil
}

// NewClient performs the HBP1 handshake over an established connection and
// starts the response reader. On error the caller still owns conn. The read
// loop exits when Close tears the connection down (any read error ends it).
//
//histburst:worker Close
func NewClient(conn net.Conn) (*Client, error) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	var hs [len(Magic) + 4]byte
	copy(hs[:], Magic)
	binary.LittleEndian.PutUint32(hs[len(Magic):], Version)
	if _, err := bw.Write(hs[:]); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	payload, err := readFrame(br, nil)
	if err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	r := binenc.NewReader(payload)
	kind := r.Byte()
	r.Uvarint() // handshake frames ride the reserved id 0
	switch kind {
	case frameNack:
		ne, err := decodeNack(r)
		if err != nil {
			return nil, err
		}
		return nil, ne
	case frameHello:
	default:
		return nil, fmt.Errorf("%w: expected HELLO, got frame type 0x%02x", ErrBadFrame, kind)
	}
	hello, err := decodeHello(r)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		hello:   hello,
		bw:      bw,
		pending: make(map[uint64]chan []byte),
		credits: hello.Window,
		alerts:  subscribe.NewQueue(subscribe.DefaultQueueCap),
	}
	c.ccond = sync.NewCond(&c.cmu)
	go c.readLoop(br)
	return c, nil
}

// Hello returns the server's handshake parameters (credit window, sketch
// id space and γ, batch ceiling).
func (c *Client) Hello() Hello { return c.hello }

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return c.conn.Close()
}

// fail records the sticky transport error once and wakes every waiter.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.err == nil {
		c.err = err
		for id, ch := range c.pending {
			close(ch)
			delete(c.pending, id)
		}
	}
	c.pmu.Unlock()
	c.cmu.Lock()
	c.ccond.Broadcast()
	c.cmu.Unlock()
	c.alerts.Close()
}

// readLoop delivers responses to their registered waiters and folds CREDIT
// grants into the window.
func (c *Client) readLoop(br *bufio.Reader) {
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = ErrClosed
			}
			c.fail(err)
			return
		}
		buf = payload[:0]
		r := binenc.NewReader(payload)
		kind := r.Byte()
		id := r.Uvarint()
		if r.Err() != nil {
			c.fail(fmt.Errorf("%w: truncated frame preamble", ErrBadFrame))
			return
		}
		if kind == frameCredit {
			grant, err := decodeCredit(r)
			if err != nil {
				c.fail(err)
				return
			}
			c.cmu.Lock()
			c.credits += grant
			c.ccond.Broadcast()
			c.cmu.Unlock()
			continue
		}
		if kind == frameAlert {
			a, err := decodeAlert(r)
			if err != nil {
				c.fail(err)
				return
			}
			c.alerts.Push(a)
			continue
		}
		c.pmu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if ch == nil {
			c.fail(fmt.Errorf("%w: response for unknown request id %d", ErrBadFrame, id))
			return
		}
		// The read buffer is reused for the next frame, so the waiter gets
		// its own copy.
		ch <- append([]byte(nil), payload...)
	}
}

// register allocates a request id and its response channel.
func (c *Client) register() (uint64, chan []byte, error) {
	ch := make(chan []byte, 1)
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	c.nid++
	id := c.nid
	c.pending[id] = ch
	return id, ch, nil
}

// send frames one encoded payload, flushing so the server sees it promptly.
func (c *Client) send(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeFrame(c.bw, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// await blocks for the response to id and decodes its preamble, returning a
// reader positioned at the frame body. ERR and NACK frames come back as
// *RequestError / *NackError.
func (c *Client) await(ch chan []byte, want byte) (*binenc.Reader, error) {
	payload, ok := <-ch
	if !ok {
		c.pmu.Lock()
		err := c.err
		c.pmu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	r := binenc.NewReader(payload)
	kind := r.Byte()
	r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case want:
		return r, nil
	case frameErr:
		re, err := decodeErr(r)
		if err != nil {
			return nil, err
		}
		return nil, re
	case frameNack:
		ne, err := decodeNack(r)
		if err != nil {
			return nil, err
		}
		return nil, ne
	}
	return nil, fmt.Errorf("%w: expected frame type 0x%02x, got 0x%02x", ErrBadFrame, want, kind)
}

// call is the simple round trip: register, send, await.
func (c *Client) call(encode func(id uint64) []byte, want byte) (*binenc.Reader, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	if err := c.send(encode(id)); err != nil {
		c.fail(err)
		return nil, err
	}
	return c.await(ch, want)
}

// Point evaluates a batch of point queries in one round trip. Tau 0 selects
// the server default span. Many Point calls may be in flight at once (the
// pipelined form of the HTTP batch endpoint).
func (c *Client) Point(qs []PointQuery) ([]PointResult, error) {
	r, err := c.call(func(id uint64) []byte { return encodePointReq(id, qs) }, framePointResp)
	if err != nil {
		return nil, err
	}
	return decodePointResp(r)
}

// Times runs a BURSTY-TIMES query. Tau 0 selects the server default span.
func (c *Client) Times(e uint64, theta float64, tau int64) ([]histburst.TimeRange, *pbe.ErrorEnvelope, error) {
	r, err := c.call(func(id uint64) []byte { return encodeTimesReq(id, e, theta, tau) }, frameTimesResp)
	if err != nil {
		return nil, nil, err
	}
	return decodeTimesResp(r)
}

// Events runs a BURSTY-EVENTS query, returning scored hits.
func (c *Client) Events(t int64, theta float64, tau int64) ([]EventHit, *pbe.ErrorEnvelope, error) {
	r, err := c.call(func(id uint64) []byte { return encodeEventsReq(id, t, theta, tau) }, frameEventsResp)
	if err != nil {
		return nil, nil, err
	}
	return decodeHits(r)
}

// Top returns the k burstiest events at t. K 0 selects the server default.
func (c *Client) Top(t int64, k int64, tau int64) ([]EventHit, *pbe.ErrorEnvelope, error) {
	r, err := c.call(func(id uint64) []byte { return encodeTopReq(id, t, k, tau) }, frameTopResp)
	if err != nil {
		return nil, nil, err
	}
	return decodeHits(r)
}

// Stats fetches the server's serving statistics.
func (c *Client) Stats() (Stats, error) {
	r, err := c.call(func(id uint64) []byte { return encodeStatsReq(id) }, frameStatsResp)
	if err != nil {
		return Stats{}, err
	}
	return decodeStatsResp(r)
}

// Alerts returns the queue unsolicited ALERT frames are delivered to. Pop
// it (typically on a dedicated goroutine) to follow the standing queries
// registered with Subscribe; the queue closes when the client does. Alerts
// arriving while nobody drains are dropped oldest-first and surface in the
// next delivered alert's Gap field.
func (c *Client) Alerts() *subscribe.Queue { return c.alerts }

// Subscribe registers a standing burst query on the server; matching alerts
// arrive on Alerts() until Unsubscribe or disconnect (wire subscriptions
// are connection-scoped). The returned id names the registration.
func (c *Client) Subscribe(sub subscribe.Subscription) (uint64, error) {
	r, err := c.call(func(id uint64) []byte { return encodeSubscribeReq(id, sub) }, frameSubResp)
	if err != nil {
		return 0, err
	}
	subID, ok, err := decodeSubResp(r)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, &RequestError{Message: "subscription refused"}
	}
	return subID, nil
}

// Unsubscribe cancels a standing query registered on this connection. It
// reports false for an id this connection does not own.
func (c *Client) Unsubscribe(subID uint64) (bool, error) {
	r, err := c.call(func(id uint64) []byte { return encodeUnsubscribeReq(id, subID) }, frameSubResp)
	if err != nil {
		return false, err
	}
	_, ok, err := decodeSubResp(r)
	if err != nil {
		return false, err
	}
	return ok, nil
}

// acquire blocks until n element credits are available (or the transport
// dies) and takes them. Runs once per streamed chunk, between frame writes
// on the append hot path.
//
//histburst:noalloc
func (c *Client) acquire(n int64) error {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	for c.credits < n {
		c.pmu.Lock()
		err := c.err
		c.pmu.Unlock()
		if err != nil {
			return err
		}
		c.ccond.Wait()
	}
	c.credits -= n
	return nil
}

// Append streams elems to the server in credit-gated chunks, pipelining
// frames inside the advertised window and aggregating the windowed acks.
// The returned result sums appended/rejected across chunks and carries the
// store totals of the last ack. When a chunk is refused mid-stream the
// aggregate of the acks *before* it is returned alongside the *NackError:
// Appended+Rejected always counts a contiguous prefix of elems, and
// everything inside that prefix is durably committed (the acked-prefix
// contract). Chunks the server happened to accept after a refused one are
// not folded in — their elements count as unacknowledged, so a retry from
// the prefix may re-append them (at-least-once) but can never drop an
// element the server refused.
func (c *Client) Append(elems stream.Stream) (AppendResult, error) {
	var agg AppendResult
	if len(elems) == 0 {
		return agg, &RequestError{Message: "empty batch"}
	}
	chunk := int64(DefaultChunk)
	if chunk > c.hello.Window {
		chunk = c.hello.Window
	}
	if chunk < 1 {
		chunk = 1
	}
	type inflight struct {
		ch chan []byte
		n  int64
	}
	var sent []inflight
	var sendErr error
	for off := int64(0); off < int64(len(elems)); off += chunk {
		end := off + chunk
		if end > int64(len(elems)) {
			end = int64(len(elems))
		}
		n := end - off
		if sendErr = c.acquire(n); sendErr != nil {
			break
		}
		id, ch, err := c.register()
		if err != nil {
			sendErr = err
			break
		}
		if err := c.send(encodeAppend(id, elems[off:end])); err != nil {
			c.fail(err)
			sendErr = err
			break
		}
		sent = append(sent, inflight{ch: ch, n: n})
	}
	// Collect acks in send order and stop at the first refusal or decode
	// failure: acks that arrive for chunks *after* a failed one must not be
	// folded in, or the aggregate would overcount the contiguous committed
	// prefix and a retry loop trimming by it would silently drop the failed
	// chunk's elements. Responses for the remaining in-flight chunks are
	// discarded by the read loop (their channels are buffered).
	var firstErr error
	for _, f := range sent {
		r, err := c.await(f.ch, frameAppendAck)
		if err != nil {
			firstErr = err
			break
		}
		ack, err := decodeAppendAck(r)
		if err != nil {
			firstErr = err
			break
		}
		agg.Appended += ack.Appended
		agg.Rejected += ack.Rejected
		agg.Elements = ack.Elements
		agg.OutOfOrder = ack.OutOfOrder
	}
	if firstErr == nil {
		firstErr = sendErr
	}
	return agg, firstErr
}

// encodeStatsReq is here rather than proto.go because the request has no
// body beyond the preamble.
func encodeStatsReq(id uint64) []byte {
	var w binenc.Writer
	beginPayload(&w, frameStats, id)
	return w.Bytes()
}
