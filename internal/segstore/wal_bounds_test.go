package segstore

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"histburst/internal/binenc"
	"histburst/internal/stream"
)

// Boundary values through the WAL record codec: extreme event ids and
// times (maximum-width varints on the wire), empty records, and corrupted
// payload bytes. The companions to internal/binenc's varint vectors — this
// pins that the record layer composes them safely.

func TestWALRecordBoundaryValues(t *testing.T) {
	cases := []struct {
		name   string
		startN int64
		elems  stream.Stream
	}{
		{"empty record", 0, nil},
		{"max event id", 7, stream.Stream{{Event: math.MaxUint64, Time: 1}}},
		{"huge positive time", 0, stream.Stream{{Event: 1, Time: math.MaxInt64 / 2}}},
		{"negative then positive time", 3, stream.Stream{
			{Event: 2, Time: math.MinInt64 / 4},
			{Event: math.MaxUint64, Time: math.MaxInt64 / 4},
		}},
		{"large startN", math.MaxInt64 / 2, stream.Stream{{Event: 0, Time: 0}, {Event: 1, Time: 0}}},
		{"identical times (zero deltas)", 1, stream.Stream{
			{Event: 5, Time: 100}, {Event: 6, Time: 100}, {Event: 7, Time: 100},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := encodeWALRecord(tc.startN, tc.elems)
			// Strip the u32 length + u32 crc header; decodeWALRecord sees
			// the CRC-verified payload.
			rec, err := decodeWALRecord(frame[8:])
			if err != nil {
				t.Fatal(err)
			}
			if rec.startN != tc.startN {
				t.Fatalf("startN %d, want %d", rec.startN, tc.startN)
			}
			if len(rec.elems) != len(tc.elems) {
				t.Fatalf("%d elements, want %d", len(rec.elems), len(tc.elems))
			}
			for i, el := range rec.elems {
				if el != tc.elems[i] {
					t.Fatalf("element %d: %+v, want %+v", i, el, tc.elems[i])
				}
			}
		})
	}
}

// Every truncation and every mutated byte of a record payload must come
// back as an error (or, for mutations that still parse, a structurally
// valid record) — never a panic or a runaway allocation.
func TestWALRecordCorruptPayloads(t *testing.T) {
	elems := stream.Stream{
		{Event: math.MaxUint64, Time: -1 << 40},
		{Event: 0, Time: 1 << 40},
		{Event: 12345, Time: 1<<40 + 7},
	}
	payload := encodeWALRecord(42, elems)[8:]
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeWALRecord(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	for i := 0; i < len(payload); i++ {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xff
		rec, err := decodeWALRecord(mut)
		if err == nil && int64(len(rec.elems)) > int64(len(payload)) {
			t.Fatalf("byte %d: corrupt payload decoded to %d elements", i, len(rec.elems))
		}
	}

	// An element count far beyond what the payload could hold is rejected
	// by the SliceLen guard before any allocation.
	var w binenc.Writer
	w.Uvarint(0)
	w.Uvarint(uint64(maxWALRecordElems) + 1)
	if _, err := decodeWALRecord(w.Bytes()); err == nil {
		t.Fatal("implausible element count decoded cleanly")
	}
	var w2 binenc.Writer
	w2.Uvarint(0)
	w2.Uvarint(1 << 20) // claims 1M elements, provides none
	if _, err := decodeWALRecord(w2.Bytes()); err == nil {
		t.Fatal("count exceeding payload size decoded cleanly")
	}

	// A negative start position (uvarint that wraps int64) is rejected.
	var w3 binenc.Writer
	w3.Uvarint(math.MaxUint64)
	w3.Uvarint(0)
	if _, err := decodeWALRecord(w3.Bytes()); err == nil {
		t.Fatal("negative start position decoded cleanly")
	}
}

// TestWALOrdersAreCheapest: the order egCost picks is the one at which the
// values take the fewest bits as bitWriter writes them, counted at every
// order — over small, uniform, all-ones (where the quotient's + 1 carries)
// and extreme values.
func TestWALOrdersAreCheapest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draws := []func() uint64{
		func() uint64 { return uint64(rng.Intn(4)) },
		func() uint64 { return uint64(rng.ExpFloat64() * 40) },
		func() uint64 { return rng.Uint64() >> rng.Intn(64) },
		func() uint64 { return 1<<rng.Intn(65) - 1 },
		func() uint64 { return math.MaxUint64 - uint64(rng.Intn(3)) },
	}
	for trial := 0; trial < 200; trial++ {
		vals := make([]uint64, 1+rng.Intn(40))
		for i := range vals {
			vals[i] = draws[(trial+i*rng.Intn(2))%len(draws)]()
		}
		var c egCost
		for _, v := range vals {
			c.add(v)
		}
		k, cost := c.best()
		wantK, wantCost := uint(0), -1
		for order := uint(0); order < 1<<walOrderBits; order++ {
			var w bitWriter
			for _, v := range vals {
				w.expGolomb(v, order)
			}
			if bits := 8*len(w.buf) + int(w.n); wantCost < 0 || bits < wantCost {
				wantK, wantCost = order, bits
			}
		}
		if k != wantK || cost != wantCost {
			t.Fatalf("values %v: picked order %d at %d bits, want %d at %d", vals, k, cost, wantK, wantCost)
		}
	}
}

// TestWALRecordRefusals forges HBW2 payloads the writer never makes, one
// per decoder refusal, beside the smallest record each one borders.
func TestWALRecordRefusals(t *testing.T) {
	// payload writes the byte header, then bits from fill.
	payload := func(startN []byte, count uint64, t0 int64, fill func(w *bitWriter)) []byte {
		var h binenc.Writer
		h.Uvarint(count)
		h.Varint(t0)
		w := bitWriter{buf: append(startN, h.Bytes()...)}
		fill(&w)
		return w.flush()
	}
	zeroOrders := func(w *bitWriter) { w.write(0, 2*walOrderBits) }
	ones := func(n uint) func(w *bitWriter) { // n order-0 codes of 0
		return func(w *bitWriter) { zeroOrders(w); w.write(1<<n-1, n) }
	}
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"six zero-valued elements in 11 bits", payload([]byte{0}, 6, 5, ones(11)), true},
		{"a seventh needs 2 bits more than the 1 left", payload([]byte{0}, 7, 5, ones(11)), false},
		{"count beyond the bits, before any allocation", payload([]byte{0}, 1<<22, 5, ones(11)), false},
		{"overlong start position", payload([]byte{0x80, 0x00}, 6, 5, ones(11)), false},
		{"trailing byte", append(payload([]byte{0}, 6, 5, ones(11)), 0), false},
		{"nonzero padding", payload([]byte{0}, 6, 5, func(w *bitWriter) { ones(11)(w); w.write(1, 1) }), false},
		{"gap to MaxInt64", payload([]byte{0}, 2, math.MaxInt64-2, func(w *bitWriter) {
			zeroOrders(w)
			w.expGolomb(0, 0)
			w.expGolomb(2, 0)
			w.expGolomb(0, 0)
		}), true},
		{"gap past MaxInt64", payload([]byte{0}, 2, math.MaxInt64-2, func(w *bitWriter) {
			zeroOrders(w)
			w.expGolomb(0, 0)
			w.expGolomb(3, 0)
			w.expGolomb(0, 0)
		}), false},
		{"id 2⁶⁴ − 1 at order 0", payload([]byte{0}, 1, 0, func(w *bitWriter) {
			zeroOrders(w)
			w.expGolomb(math.MaxUint64, 0)
		}), true},
		{"id 2⁶⁴ at order 0", payload([]byte{0}, 1, 0, func(w *bitWriter) {
			zeroOrders(w)
			w.writeLong(0, 64)
			w.write(1, 1)
			w.writeLong(1, 64)
		}), false},
		{"a code of 65 zero bits", payload([]byte{0}, 1, 0, func(w *bitWriter) {
			zeroOrders(w)
			w.writeLong(0, 64)
			w.write(0, 1)
			w.write(1, 1)
			w.writeLong(0, 64)
			w.write(0, 1)
		}), false},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decodeWALRecord(tc.data)
		runtime.ReadMemStats(&after)
		if tc.ok != (err == nil) {
			t.Errorf("%s: decoded %d elements, error %v; want ok=%v", tc.name, len(rec.elems), err, tc.ok)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, got)
		}
	}
}
