package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/stream"
)

// newTestReader positions a binenc reader at the start of a raw payload.
func newTestReader(b []byte) *binenc.Reader { return binenc.NewReader(b) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{0x01},
		[]byte("hello frames"),
		bytes.Repeat([]byte{0xab}, 4096),
	}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	var scratch []byte
	for i, want := range payloads {
		got, err := readFrame(br, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		scratch = got[:0]
	}
	if _, err := readFrame(br, scratch); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean io.EOF between frames, got %v", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("payload under test")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// A stream ending inside the frame (header or payload) is ErrBadFrame,
	// never a clean EOF.
	for cut := 1; cut < len(full); cut++ {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(full[:cut])), nil)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncation at %d: got %v, want ErrBadFrame", cut, err)
		}
	}
	// Any single bit flip is caught by the length check or the checksum.
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		got, err := readFrame(bufio.NewReader(bytes.NewReader(mut)), nil)
		if err == nil {
			t.Fatalf("bit flip at %d produced a clean frame %q", i, got)
		}
	}
	// An implausible length prefix is rejected before any allocation.
	huge := append([]byte(nil), full...)
	huge[3] = 0xff
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge)), nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("implausible length: %v", err)
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	if err := writeFrame(io.Discard, make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("oversized payload framed cleanly")
	}
}

// FuzzWireFrame throws arbitrary bytes at the frame reader and, when a
// frame decodes, at every payload decoder: none may panic, decodeAppend
// takes no batch past MaxAppendElems, and a frame that round-trips must
// re-encode identically.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00})
	var seed bytes.Buffer
	writeFrame(&seed, encodeAppend(1, seq([]uint64{3, 5}, 100)))
	writeFrame(&seed, encodePointReq(2, []PointQuery{{Event: 1, T: 50, Tau: 60}}))
	writeFrame(&seed, encodeHello(Hello{Version: 1, Window: 64, K: 8, Gamma: 2, MaxBatch: 100}))
	writeFrame(&seed, encodeNack(3, NackReadOnly, 0, "refused", nil))
	f.Add(seed.Bytes())
	var over bytes.Buffer // one element over the append bound
	writeFrame(&over, encodeAppend(4, make(stream.Stream, MaxAppendElems+1)))
	f.Add(over.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			payload, err := readFrame(br, buf)
			if err != nil {
				return
			}
			buf = payload[:0]
			// Exercise every decoder on the payload body; errors are fine,
			// panics and runaway allocations are not.
			r := newTestReader(payload)
			kind := r.Byte()
			r.Uvarint()
			if r.Err() != nil {
				continue
			}
			body := func() *binenc.Reader {
				rr := newTestReader(payload)
				rr.Byte()
				rr.Uvarint()
				return rr
			}
			switch kind {
			case frameAppend:
				if elems, err := decodeAppend(body()); len(elems) > MaxAppendElems {
					t.Fatalf("decodeAppend took %d elements past the %d bound (%v)", len(elems), MaxAppendElems, err)
				}
			case framePoint:
				decodePointReq(body())
			case frameTimes:
				decodeTimesReq(body())
			case frameEvents:
				decodeEventsReq(body())
			case frameTop:
				decodeTopReq(body())
			case frameHello:
				decodeHello(body())
			case frameAppendAck:
				decodeAppendAck(body())
			case framePointResp:
				decodePointResp(body())
			case frameTimesResp:
				decodeTimesResp(body())
			case frameEventsResp, frameTopResp:
				decodeHits(body())
			case frameStatsResp:
				decodeStatsResp(body())
			case frameCredit:
				decodeCredit(body())
			case frameNack:
				decodeNack(body())
			case frameErr:
				decodeErr(body())
			case frameSubscribe:
				decodeSubscribeReq(body())
			case frameUnsubscribe:
				decodeUnsubscribeReq(body())
			case frameSubResp:
				decodeSubResp(body())
			case frameAlert:
				decodeAlert(body())
			}
		}
	})
}

// TestAppendGolden pins the APPEND payload to the bytes it has always had:
// unsorted with negative deltas, duplicate timestamps, Unix-second and
// Unix-millisecond origins, and a span wider than 2⁶³; each decodes back.
func TestAppendGolden(t *testing.T) {
	for _, tc := range []struct {
		s   stream.Stream
		hex string
	}{
		{goldenRun(3, 100, 1, 40, 1<<40, 250, 2, -10), "01070403c8010177808080808020a403028704"},
		{goldenRun(5, 7, 5, 7, 9, 7, 5, 8), "010704050e050009000502"},
		{goldenRun(1, 1_700_000_000, 2, 1_700_000_003, 1, 1_700_086_400), "0107030180c49fd50c020601fac50a"},
		{goldenRun(0, 1_700_000_000_000, 300, 1_700_000_000_250, 70_000, 1_700_086_400_000),
			"0107030080a0abfef962ac02f403f0a2048cecb252"},
		{goldenRun(1, math.MinInt64+1, 2, math.MaxInt64), "01070201fdffffffffffffffff010203"},
	} {
		payload := encodeAppend(7, tc.s)
		if got := hex.EncodeToString(payload); got != tc.hex {
			t.Errorf("encodeAppend(%v) = %s, want %s", tc.s, got, tc.hex)
		}
		r := newTestReader(payload)
		r.Byte()
		r.Uvarint()
		if got, err := decodeAppend(r); err != nil || !slices.Equal(got, tc.s) {
			t.Errorf("decodeAppend = %v (%v), want %v", got, err, tc.s)
		}
	}
}

// goldenRun builds a stream from (event, time) pairs.
func goldenRun(pairs ...int64) stream.Stream {
	s := make(stream.Stream, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		s = append(s, stream.Element{Event: uint64(pairs[i]), Time: pairs[i+1]})
	}
	return s
}
