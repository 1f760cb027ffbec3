package wire

import (
	"fmt"
	"time"

	"histburst"
	"histburst/internal/binenc"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
)

// Frame types. Client-originated frames carry a request id the server
// echoes in its answer; the reserved id 0 marks unsolicited server frames
// (CREDIT grants and the handshake HELLO).
const (
	// client → server
	frameAppend      byte = 0x01 // streamed append batch (consumes credits)
	framePoint       byte = 0x02 // pipelined batch of point queries
	frameTimes       byte = 0x03 // BURSTY-TIMES query
	frameEvents      byte = 0x04 // BURSTY-EVENTS query
	frameTop         byte = 0x05 // top-k burstiness query
	frameStats       byte = 0x06 // server statistics
	frameSubscribe   byte = 0x07 // register a standing burst query
	frameUnsubscribe byte = 0x08 // cancel a standing burst query

	// server → client
	frameHello      byte = 0x10 // handshake accept: version, window, sketch params
	frameAppendAck  byte = 0x11 // append outcome (the windowed ack)
	framePointResp  byte = 0x12
	frameTimesResp  byte = 0x13
	frameEventsResp byte = 0x14
	frameTopResp    byte = 0x15
	frameStatsResp  byte = 0x16
	frameCredit     byte = 0x17 // backpressure credit grant (element count)
	frameNack       byte = 0x18 // refused request: code, Retry-After, γ envelope
	frameErr        byte = 0x19 // malformed request (HTTP 400 equivalent)
	frameSubResp    byte = 0x1A // subscribe/unsubscribe outcome: id or refusal
	frameAlert      byte = 0x1B // unsolicited burst alert (request id 0)
)

// Decoder ceilings. Each is generous against real traffic but keeps a
// corrupt or hostile length prefix from ballooning the heap; SliceLen
// additionally bounds every count by the remaining payload bytes.
const (
	// MaxBatchQueries bounds one POINT batch's query count, on the wire and
	// in burstd's /v1/query/batch (AnswerPoint enforces it).
	MaxBatchQueries = 10_000
	// maxAppendElems bounds one APPEND frame's element count (each element
	// occupies at least 2 payload bytes, so the 8 MB frame cap is reached
	// first in practice).
	maxAppendElems = 1 << 22
	// maxResponseItems bounds decoded response collections (ranges, hits).
	maxResponseItems = 1 << 22
	// maxEnvelopeRanges bounds an envelope's missing-span list.
	maxEnvelopeRanges = 1 << 16
	// maxMessageBytes bounds NACK/ERR message strings.
	maxMessageBytes = 1 << 12
	// maxSubEvents bounds one SUBSCRIBE frame's event list, mirroring
	// subscribe.MaxEventsPerSub.
	maxSubEvents = subscribe.MaxEventsPerSub
)

// NackCode classifies a refused request.
type NackCode byte

const (
	// NackVersion: the handshake proposed a protocol version the server
	// does not speak; the connection is closed after the NACK.
	NackVersion NackCode = 1
	// NackDraining: the server is shutting down; retry elsewhere/later.
	NackDraining NackCode = 2
	// NackReadOnly: the store is read-only after a disk fault; appends are
	// refused while queries keep serving. Retry after the hint.
	NackReadOnly NackCode = 3
	// NackInternal: the append failed on a logic error (HTTP 500
	// equivalent); retrying cannot help.
	NackInternal NackCode = 4
)

func (c NackCode) String() string {
	switch c {
	case NackVersion:
		return "version-mismatch"
	case NackDraining:
		return "draining"
	case NackReadOnly:
		return "read-only"
	case NackInternal:
		return "internal"
	}
	return fmt.Sprintf("NackCode(%d)", byte(c))
}

// Hello is the server's handshake accept: the negotiated version, the
// append credit window (elements), the sketch's id space and γ error cap,
// and the per-frame point-query ceiling.
type Hello struct {
	Version  uint32
	Window   int64
	K        uint64
	Gamma    float64
	MaxBatch int
}

// PointQuery is one point (burstiness) query. Tau 0 selects the server
// default span (DefaultTau), on the wire and in /v1/query/batch alike.
type PointQuery struct {
	Event uint64 `json:"event"`
	T     int64  `json:"t"`
	Tau   int64  `json:"tau,omitempty"`
}

// PointResult is one point query's answer. Envelope is non-nil exactly when
// the history below T is degraded (see AnswerPoint).
type PointResult struct {
	Burstiness float64                 `json:"burstiness"`
	Envelope   *segstore.ErrorEnvelope `json:"envelope,omitempty"`
}

// EventHit is one (event, burstiness) pair of a BURSTY-EVENTS or top-k
// response.
type EventHit struct {
	Event      uint64  `json:"event"`
	Burstiness float64 `json:"burstiness"`
}

// AppendResult is the windowed ack's body: the batch outcome plus the store
// totals the HTTP append response carries.
type AppendResult struct {
	Appended   int64
	Rejected   int64
	Elements   int64 // store total after the batch
	OutOfOrder int64 // store lifetime rejection count
}

// Stats is what a STATS frame carries; GET /v1/stats reports the same
// fields under these JSON keys.
type Stats struct {
	Elements    int64  `json:"elements"`
	EventSpace  uint64 `json:"eventSpace"`
	MaxTime     int64  `json:"maxTime"`
	Bytes       int64  `json:"bytes"`
	OutOfOrder  int64  `json:"outOfOrder"`
	Generation  uint64 `json:"generation"`
	Segments    int    `json:"segments"`
	Quarantined int    `json:"quarantined"`
	ReadOnly    bool   `json:"readOnly"`
	HeadElems   int64  `json:"headElems"`
	// Resident is how many of Segments are decoded in memory; the rest hold
	// verified file bytes until a query first touches them.
	Resident int `json:"resident"`
	// HeapAlloc is the serving process's live heap: what it holds, where
	// Bytes is what the summaries count.
	HeapAlloc int64 `json:"heapAlloc"`
}

// NackError is a refused request surfaced to the client caller.
type NackError struct {
	Code       NackCode
	RetryAfter time.Duration
	Message    string
	// Envelope is the store's γ error envelope at its frontier — what a
	// blocked writer is told about the history it cannot yet extend.
	Envelope *segstore.ErrorEnvelope
}

func (e *NackError) Error() string {
	return fmt.Sprintf("wire: request refused (%s, retry after %s): %s", e.Code, e.RetryAfter, e.Message)
}

// RequestError is a malformed request rejected by the server — the HTTP 400
// equivalent. The message matches the HTTP handler's error body.
type RequestError struct{ Message string }

func (e *RequestError) Error() string { return e.Message }

// --- payload encoding -------------------------------------------------
//
// Every payload starts with the frame type byte and the request id; the
// helpers below encode and decode the type-specific remainder. Decoders are
// sticky-error binenc readers closed at the end, so corrupt input yields an
// error, never a panic, and allocations are SliceLen-bounded.

func beginPayload(w *binenc.Writer, kind byte, id uint64) {
	w.Byte(kind)
	w.Uvarint(id)
}

func encodeHello(h Hello) []byte {
	var w binenc.Writer
	beginPayload(&w, frameHello, 0)
	w.Uint32(h.Version)
	w.Uvarint(uint64(h.Window))
	w.Uvarint(h.K)
	w.Float64(h.Gamma)
	w.Uvarint(uint64(h.MaxBatch))
	return w.Bytes()
}

//histburst:decoder
func decodeHello(r *binenc.Reader) (Hello, error) {
	var h Hello
	h.Version = r.Uint32()
	h.Window = int64(r.Uvarint())
	h.K = r.Uvarint()
	h.Gamma = r.Float64()
	h.MaxBatch = int(r.Len(1 << 30))
	if err := r.Close(); err != nil {
		return Hello{}, fmt.Errorf("wire: hello: %w", err)
	}
	if h.Window < 0 {
		return Hello{}, fmt.Errorf("wire: hello: implausible window %d", h.Window)
	}
	return h, nil
}

// encodeAppend frames one append batch: uvarint count, then the batch as an
// element run (stream.AppendRun). Batches need not be sorted (the store's
// stager sorts), so deltas may be negative.
func encodeAppend(id uint64, elems stream.Stream) []byte {
	var w binenc.Writer
	beginPayload(&w, frameAppend, id)
	w.Uvarint(uint64(len(elems)))
	stream.AppendRun(&w, elems)
	return w.Bytes()
}

//histburst:decoder
func decodeAppend(r *binenc.Reader) (stream.Stream, error) {
	elems := make(stream.Stream, r.SliceLen(maxAppendElems, stream.MinElemBytes))
	stream.ReadRun(r, elems)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("wire: append: %w", err)
	}
	return elems, nil
}

func encodePointReq(id uint64, qs []PointQuery) []byte {
	var w binenc.Writer
	beginPayload(&w, framePoint, id)
	w.Uvarint(uint64(len(qs)))
	for _, q := range qs {
		w.Uvarint(q.Event)
		w.Varint(q.T)
		w.Varint(q.Tau)
	}
	return w.Bytes()
}

//histburst:decoder
func decodePointReq(r *binenc.Reader) ([]PointQuery, error) {
	// Each query occupies at least an event, a t, and a tau byte.
	n := r.SliceLen(MaxBatchQueries, 3)
	qs := make([]PointQuery, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, PointQuery{Event: r.Uvarint(), T: r.Varint(), Tau: r.Varint()})
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("wire: point request: %w", err)
	}
	return qs, nil
}

func encodeEnvelope(w *binenc.Writer, env *segstore.ErrorEnvelope) {
	if env == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.Float64(env.Gamma)
	w.Uvarint(uint64(env.Components))
	w.Float64(env.Bound)
	w.Varint(env.Resolution)
	w.Uvarint(uint64(env.MissingElements))
	w.Uvarint(uint64(len(env.Missing)))
	for _, m := range env.Missing {
		w.Varint(m.Start)
		w.Varint(m.End)
	}
	w.Bool(env.Degraded)
}

//histburst:decoder
func decodeEnvelope(r *binenc.Reader) (*segstore.ErrorEnvelope, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	env := &segstore.ErrorEnvelope{}
	env.Gamma = r.Float64()
	env.Components = int(r.Len(1 << 30))
	env.Bound = r.Float64()
	env.Resolution = r.Varint()
	env.MissingElements = int64(r.Uvarint())
	n := r.SliceLen(maxEnvelopeRanges, 2)
	env.Missing = make([]histburst.TimeRange, 0, n)
	for i := 0; i < n; i++ {
		env.Missing = append(env.Missing, histburst.TimeRange{Start: r.Varint(), End: r.Varint()})
	}
	env.Degraded = r.Bool()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return env, nil
}

func encodePointResp(id uint64, results []PointResult) []byte {
	var w binenc.Writer
	beginPayload(&w, framePointResp, id)
	w.Uvarint(uint64(len(results)))
	for _, res := range results {
		w.Float64(res.Burstiness)
		encodeEnvelope(&w, res.Envelope)
	}
	return w.Bytes()
}

//histburst:decoder
func decodePointResp(r *binenc.Reader) ([]PointResult, error) {
	// Each result occupies at least a float64 and the envelope flag byte.
	n := r.SliceLen(maxResponseItems, 9)
	results := make([]PointResult, 0, n)
	for i := 0; i < n; i++ {
		b := r.Float64()
		env, err := decodeEnvelope(r)
		if err != nil {
			return nil, fmt.Errorf("wire: point response: %w", err)
		}
		results = append(results, PointResult{Burstiness: b, Envelope: env})
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("wire: point response: %w", err)
	}
	return results, nil
}

func encodeTimesReq(id uint64, e uint64, theta float64, tau int64) []byte {
	var w binenc.Writer
	beginPayload(&w, frameTimes, id)
	w.Uvarint(e)
	w.Float64(theta)
	w.Varint(tau)
	return w.Bytes()
}

//histburst:decoder
func decodeTimesReq(r *binenc.Reader) (e uint64, theta float64, tau int64, err error) {
	e = r.Uvarint()
	theta = r.Float64()
	tau = r.Varint()
	if err := r.Close(); err != nil {
		return 0, 0, 0, fmt.Errorf("wire: times request: %w", err)
	}
	return e, theta, tau, nil
}

func encodeTimesResp(id uint64, ranges []histburst.TimeRange, env *segstore.ErrorEnvelope) []byte {
	var w binenc.Writer
	beginPayload(&w, frameTimesResp, id)
	w.Uvarint(uint64(len(ranges)))
	for _, tr := range ranges {
		w.Varint(tr.Start)
		w.Varint(tr.End)
	}
	encodeEnvelope(&w, env)
	return w.Bytes()
}

//histburst:decoder
func decodeTimesResp(r *binenc.Reader) ([]histburst.TimeRange, *segstore.ErrorEnvelope, error) {
	n := r.SliceLen(maxResponseItems, 2)
	ranges := make([]histburst.TimeRange, 0, n)
	for i := 0; i < n; i++ {
		ranges = append(ranges, histburst.TimeRange{Start: r.Varint(), End: r.Varint()})
	}
	env, err := decodeEnvelope(r)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: times response: %w", err)
	}
	if err := r.Close(); err != nil {
		return nil, nil, fmt.Errorf("wire: times response: %w", err)
	}
	return ranges, env, nil
}

func encodeEventsReq(id uint64, t int64, theta float64, tau int64) []byte {
	var w binenc.Writer
	beginPayload(&w, frameEvents, id)
	w.Varint(t)
	w.Float64(theta)
	w.Varint(tau)
	return w.Bytes()
}

//histburst:decoder
func decodeEventsReq(r *binenc.Reader) (t int64, theta float64, tau int64, err error) {
	t = r.Varint()
	theta = r.Float64()
	tau = r.Varint()
	if err := r.Close(); err != nil {
		return 0, 0, 0, fmt.Errorf("wire: events request: %w", err)
	}
	return t, theta, tau, nil
}

func encodeTopReq(id uint64, t int64, k int64, tau int64) []byte {
	var w binenc.Writer
	beginPayload(&w, frameTop, id)
	w.Varint(t)
	w.Varint(k)
	w.Varint(tau)
	return w.Bytes()
}

//histburst:decoder
func decodeTopReq(r *binenc.Reader) (t, k, tau int64, err error) {
	t = r.Varint()
	k = r.Varint()
	tau = r.Varint()
	if err := r.Close(); err != nil {
		return 0, 0, 0, fmt.Errorf("wire: top request: %w", err)
	}
	return t, k, tau, nil
}

// encodeHits serializes an EventHit list response (BURSTY-EVENTS and top-k
// share the shape).
func encodeHits(kind byte, id uint64, hits []EventHit, env *segstore.ErrorEnvelope) []byte {
	var w binenc.Writer
	beginPayload(&w, kind, id)
	w.Uvarint(uint64(len(hits)))
	for _, h := range hits {
		w.Uvarint(h.Event)
		w.Float64(h.Burstiness)
	}
	encodeEnvelope(&w, env)
	return w.Bytes()
}

//histburst:decoder
func decodeHits(r *binenc.Reader) ([]EventHit, *segstore.ErrorEnvelope, error) {
	// Each hit occupies at least an event byte and a float64.
	n := r.SliceLen(maxResponseItems, 9)
	hits := make([]EventHit, 0, n)
	for i := 0; i < n; i++ {
		hits = append(hits, EventHit{Event: r.Uvarint(), Burstiness: r.Float64()})
	}
	env, err := decodeEnvelope(r)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: hits response: %w", err)
	}
	if err := r.Close(); err != nil {
		return nil, nil, fmt.Errorf("wire: hits response: %w", err)
	}
	return hits, env, nil
}

func encodeAppendAck(id uint64, res AppendResult) []byte {
	var w binenc.Writer
	beginPayload(&w, frameAppendAck, id)
	w.Uvarint(uint64(res.Appended))
	w.Uvarint(uint64(res.Rejected))
	w.Uvarint(uint64(res.Elements))
	w.Uvarint(uint64(res.OutOfOrder))
	return w.Bytes()
}

//histburst:decoder
func decodeAppendAck(r *binenc.Reader) (AppendResult, error) {
	res := AppendResult{
		Appended:   int64(r.Uvarint()),
		Rejected:   int64(r.Uvarint()),
		Elements:   int64(r.Uvarint()),
		OutOfOrder: int64(r.Uvarint()),
	}
	if err := r.Close(); err != nil {
		return AppendResult{}, fmt.Errorf("wire: append ack: %w", err)
	}
	return res, nil
}

func encodeStatsResp(id uint64, st Stats) []byte {
	var w binenc.Writer
	beginPayload(&w, frameStatsResp, id)
	w.Uvarint(uint64(st.Elements))
	w.Uvarint(st.EventSpace)
	w.Varint(st.MaxTime)
	w.Uvarint(uint64(st.Bytes))
	w.Uvarint(uint64(st.OutOfOrder))
	w.Uvarint(st.Generation)
	w.Uvarint(uint64(st.Segments))
	w.Uvarint(uint64(st.Quarantined))
	w.Bool(st.ReadOnly)
	w.Uvarint(uint64(st.HeadElems))
	w.Uvarint(uint64(st.Resident))
	w.Uvarint(uint64(st.HeapAlloc))
	return w.Bytes()
}

//histburst:decoder
func decodeStatsResp(r *binenc.Reader) (Stats, error) {
	st := Stats{
		Elements:    int64(r.Uvarint()),
		EventSpace:  r.Uvarint(),
		MaxTime:     r.Varint(),
		Bytes:       int64(r.Uvarint()),
		OutOfOrder:  int64(r.Uvarint()),
		Generation:  r.Uvarint(),
		Segments:    int(r.Len(1 << 30)),
		Quarantined: int(r.Len(1 << 30)),
		ReadOnly:    r.Bool(),
		HeadElems:   int64(r.Uvarint()),
		Resident:    int(r.Len(1 << 30)),
		HeapAlloc:   int64(r.Uvarint()),
	}
	if err := r.Close(); err != nil {
		return Stats{}, fmt.Errorf("wire: stats response: %w", err)
	}
	return st, nil
}

func encodeNack(id uint64, code NackCode, retryAfter time.Duration, msg string, env *segstore.ErrorEnvelope) []byte {
	var w binenc.Writer
	beginPayload(&w, frameNack, id)
	w.Byte(byte(code))
	w.Uvarint(uint64(retryAfter / time.Millisecond))
	w.BytesBlob([]byte(msg))
	encodeEnvelope(&w, env)
	return w.Bytes()
}

//histburst:decoder
func decodeNack(r *binenc.Reader) (*NackError, error) {
	ne := &NackError{Code: NackCode(r.Byte())}
	ne.RetryAfter = time.Duration(r.Len(1<<40)) * time.Millisecond
	msg := r.BytesBlob()
	if len(msg) > maxMessageBytes {
		msg = msg[:maxMessageBytes]
	}
	ne.Message = string(msg)
	env, err := decodeEnvelope(r)
	if err != nil {
		return nil, fmt.Errorf("wire: nack: %w", err)
	}
	ne.Envelope = env
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("wire: nack: %w", err)
	}
	return ne, nil
}

func encodeErr(id uint64, msg string) []byte {
	var w binenc.Writer
	beginPayload(&w, frameErr, id)
	w.BytesBlob([]byte(msg))
	return w.Bytes()
}

//histburst:decoder
func decodeErr(r *binenc.Reader) (*RequestError, error) {
	msg := r.BytesBlob()
	if len(msg) > maxMessageBytes {
		msg = msg[:maxMessageBytes]
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("wire: error frame: %w", err)
	}
	return &RequestError{Message: string(msg)}, nil
}

// encodeSubscribeReq frames a standing-query registration: the watched
// event set and the (θ, τ, dedup) triple. Webhook targets are HTTP-only —
// a wire subscription's delivery channel is the connection itself.
func encodeSubscribeReq(id uint64, sub subscribe.Subscription) []byte {
	var w binenc.Writer
	beginPayload(&w, frameSubscribe, id)
	w.Uvarint(uint64(len(sub.Events)))
	for _, e := range sub.Events {
		w.Uvarint(e)
	}
	w.Float64(sub.Theta)
	w.Varint(sub.Tau)
	w.Varint(sub.Dedup)
	return w.Bytes()
}

//histburst:decoder
func decodeSubscribeReq(r *binenc.Reader) (subscribe.Subscription, error) {
	var sub subscribe.Subscription
	n := r.SliceLen(maxSubEvents, 1)
	sub.Events = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		sub.Events = append(sub.Events, r.Uvarint())
	}
	sub.Theta = r.Float64()
	sub.Tau = r.Varint()
	sub.Dedup = r.Varint()
	if err := r.Close(); err != nil {
		return subscribe.Subscription{}, fmt.Errorf("wire: subscribe request: %w", err)
	}
	return sub, nil
}

func encodeUnsubscribeReq(id uint64, subID uint64) []byte {
	var w binenc.Writer
	beginPayload(&w, frameUnsubscribe, id)
	w.Uvarint(subID)
	return w.Bytes()
}

//histburst:decoder
func decodeUnsubscribeReq(r *binenc.Reader) (uint64, error) {
	subID := r.Uvarint()
	if err := r.Close(); err != nil {
		return 0, fmt.Errorf("wire: unsubscribe request: %w", err)
	}
	return subID, nil
}

// encodeSubResp frames a subscribe/unsubscribe outcome: ok plus the
// subscription id (the new registration's id, or the one just cancelled).
func encodeSubResp(id uint64, subID uint64, ok bool) []byte {
	var w binenc.Writer
	beginPayload(&w, frameSubResp, id)
	w.Bool(ok)
	w.Uvarint(subID)
	return w.Bytes()
}

//histburst:decoder
func decodeSubResp(r *binenc.Reader) (subID uint64, ok bool, err error) {
	ok = r.Bool()
	subID = r.Uvarint()
	if err := r.Close(); err != nil {
		return 0, false, fmt.Errorf("wire: subscription response: %w", err)
	}
	return subID, ok, nil
}

// encodeAlert frames one unsolicited burst alert (request id 0, like CREDIT
// grants): the alert identity, the triggering measurement, and — when the
// history is degraded — the γ error envelope the measurement was taken
// under.
func encodeAlert(a subscribe.Alert) []byte {
	var w binenc.Writer
	beginPayload(&w, frameAlert, 0)
	w.Uvarint(a.Seq)
	w.Uvarint(a.Sub)
	w.Uvarint(a.Event)
	w.Varint(a.Time)
	w.Float64(a.Burstiness)
	w.Float64(a.Theta)
	w.Varint(a.Tau)
	w.Uvarint(a.Gap)
	encodeEnvelope(&w, a.Envelope)
	return w.Bytes()
}

//histburst:decoder
func decodeAlert(r *binenc.Reader) (subscribe.Alert, error) {
	var a subscribe.Alert
	a.Seq = r.Uvarint()
	a.Sub = r.Uvarint()
	a.Event = r.Uvarint()
	a.Time = r.Varint()
	a.Burstiness = r.Float64()
	a.Theta = r.Float64()
	a.Tau = r.Varint()
	a.Gap = r.Uvarint()
	env, err := decodeEnvelope(r)
	if err != nil {
		return subscribe.Alert{}, fmt.Errorf("wire: alert: %w", err)
	}
	a.Envelope = env
	if err := r.Close(); err != nil {
		return subscribe.Alert{}, fmt.Errorf("wire: alert: %w", err)
	}
	return a, nil
}

func encodeCredit(grant int64) []byte {
	var w binenc.Writer
	beginPayload(&w, frameCredit, 0)
	w.Uvarint(uint64(grant))
	return w.Bytes()
}

//histburst:decoder
func decodeCredit(r *binenc.Reader) (int64, error) {
	grant := r.Uvarint()
	if err := r.Close(); err != nil {
		return 0, fmt.Errorf("wire: credit: %w", err)
	}
	return int64(grant), nil
}
