package histburst

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"histburst/internal/atomicfile"
	"histburst/internal/binenc"
	"histburst/internal/dyadic"
	"histburst/internal/pbe2"
)

// Serialized detector format: a fixed magic, the resolved configuration,
// the ingest counters, the summary (the dyadic tree), and a CRC32-C footer
// over everything before it, so torn writes and bit rot fail loudly at load
// time instead of decoding into a subtly wrong detector. Load holds every
// level to the γ of the stored configuration, so no options are needed at
// load time and a detector round-trips exactly. Save writes, and Load
// accepts, format v9 ("HBD9") only: every level is a "P2B\x04" cell block,
// whose segments store a float32 slope and their value at Start in the form
// their cell holds it (HBD8's blocks wrote each value by the rule of 32-bit
// fields, HBD7's two float64 a segment); the levels of the event index
// from height 4 up, which only steer the search, are held under
// dyadic.SteerGammaFactor × γ (a level under any other γ than its height
// calls for is refused), and the header holds γ and no other cell or shape
// parameter, because every cell is PBE-2 and every detector has the index. A
// file of any other generation is refused with an error naming its version,
// and so is a single-event summary of the generations that had a format of
// their own, HBS1 to HBS3: a Single now saves as the detector over one id.

var detectorMagic = []byte{'H', 'B', 'D', 9}

// ErrUnsupportedFormat is wrapped by the error Load, Decode and Inspect
// return for a detector file of another format generation: a file that is
// whole and was once valid, unlike a damaged one, so a store must refuse to
// open over it rather than quarantine it.
var ErrUnsupportedFormat = errors.New("unsupported detector format")

// crcTable is the Castagnoli polynomial, the usual choice for storage
// footers (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxEventSpace bounds the deserialized id-space size. Ids are folded into
// the space by modulo, so anything larger is certainly corruption — and the
// bound keeps K()'s power-of-two rounding away from uint64 overflow.
const maxEventSpace = 1 << 48

// maxSketchDim bounds each deserialized Count-Min dimension; the real cap
// is the cell count downstream, this just rejects absurd configs early.
const maxSketchDim = 1 << 24

// Save writes the detector's complete state. The detector is Finish()ed as
// a side effect (serializing an open PBE-2 window would otherwise drop it);
// appending after Save (or after loading the result) continues normally.
func (d *Detector) Save(w io.Writer) error {
	d.Finish()
	var enc binenc.Writer
	enc.BytesBlob(detectorMagic)
	enc.Uvarint(d.k)
	c := d.cfg
	enc.Int64(c.seed)
	enc.Uvarint(uint64(c.d))
	enc.Uvarint(uint64(c.w))
	enc.Float64(c.gamma)
	enc.Varint(d.n)
	enc.Varint(d.minT)
	enc.Varint(d.maxT)
	enc.Varint(d.lastT)
	enc.Bool(d.started)
	enc.Varint(d.outOfOrder)

	if err := d.tree.Encode(&enc); err != nil {
		return fmt.Errorf("histburst: %w", err)
	}
	enc.Uint32(crc32.Checksum(enc.Bytes(), crcTable))

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(enc.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveFile writes the detector to path atomically: the encoded state goes
// to a temporary file in the same directory, is fsynced, and only then
// renamed over path. A crash at any point leaves either the previous file
// or the complete new one — never a torn mix.
func (d *Detector) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, buf.Bytes())
}

// Clone returns an independent deep copy of the detector via a Save/Load
// round-trip; the receiver is Finish()ed as a side effect (see Save).
func (d *Detector) Clone() (*Detector, error) {
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return nil, err
	}
	return Decode(buf.Bytes())
}

// LoadFile reads a detector from a file written by SaveFile (or any saved
// detector).
func LoadFile(path string) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	det, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return det, nil
}

// Load reads a detector written by Save. No options are needed: the
// configuration is part of the serialized form. Corrupt or truncated input
// of any shape yields an error, never a panic, and cannot trigger
// allocations beyond a small multiple of the input size.
func Load(r io.Reader) (*Detector, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Header is what a serialized detector says about itself ahead of its
// summary — what Inspect can vouch for without decoding the summary.
type Header struct {
	// Params is what Detector.Params reports for the decoded detector.
	Params SketchParams
	// N is the ingested element count.
	N int64
}

// Inspect verifies a serialized detector as far as its bytes can be verified
// without decoding the summary: the magic, the CRC32-C footer over the whole
// file, and every header field under the bounds Decode applies. It accepts
// exactly the inputs whose magic, checksum and header Decode accepts, at the
// cost of one pass over the bytes — what remains for Decode to reject is a
// summary that is malformed under a valid checksum, which no torn write or
// bit flip can produce.
func Inspect(data []byte) (Header, error) {
	det, _, err := decodeHeader(data)
	if err != nil {
		return Header{}, err
	}
	return Header{Params: det.Params(), N: det.n}, nil
}

// decodeHeader checks data's magic and checksum and decodes everything ahead
// of the summary: the detector with its configuration and counters set and
// no summary yet, and the reader standing at the summary.
//
//histburst:decoder
func decodeHeader(data []byte) (det *Detector, dec *binenc.Reader, err error) {
	magic := binenc.NewReader(data).BytesBlob()
	if !bytes.Equal(magic, detectorMagic) {
		if len(magic) == 4 && bytes.Equal(magic[:3], detectorMagic[:3]) {
			return nil, nil, fmt.Errorf("histburst: %w HBD%d (this build reads HBD9 only)", ErrUnsupportedFormat, magic[3])
		}
		if len(magic) == 4 && string(magic[:3]) == "HBS" {
			return nil, nil, fmt.Errorf("histburst: unsupported single-event summary format HBS%d (this build reads a single-event summary as an HBD9 detector file over one id)", magic[3])
		}
		return nil, nil, fmt.Errorf("histburst: bad magic (not a detector file)")
	}
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("histburst: corrupt detector file: missing checksum footer")
	}
	body := data[:len(data)-4]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return nil, nil, fmt.Errorf("histburst: corrupt detector file: checksum mismatch (%08x != %08x)", got, want)
	}
	dec = binenc.NewReader(body)
	dec.BytesBlob() // magic, verified above
	k := dec.Uvarint()
	var c config
	c.seed = dec.Int64()
	c.d = int(dec.Uvarint())
	c.w = int(dec.Uvarint())
	c.gamma = dec.Float64()
	n := dec.Varint()
	minT := dec.Varint()
	maxT := dec.Varint()
	lastT := dec.Varint()
	started := dec.Bool()
	outOfOrder := dec.Varint()
	if err := dec.Err(); err != nil {
		return nil, nil, fmt.Errorf("histburst: %w", err)
	}
	if k == 0 {
		return nil, nil, fmt.Errorf("histburst: corrupt detector file: empty id space")
	}
	if k > maxEventSpace {
		return nil, nil, fmt.Errorf("histburst: corrupt detector file: implausible id space %d", k)
	}
	if c.d <= 0 || c.w <= 0 || c.d > maxSketchDim || c.w > maxSketchDim {
		return nil, nil, fmt.Errorf("histburst: corrupt detector file: implausible sketch dimensions %d×%d", c.d, c.w)
	}
	// No cell is under such a γ, so Decode refuses it at the first level;
	// refused here, Inspect agrees.
	if err := pbe2.CheckGamma(c.gamma); err != nil {
		return nil, nil, fmt.Errorf("histburst: corrupt detector file: %w", err)
	}
	det = &Detector{
		k: k, cfg: c,
		counters: counters{n: n, minT: minT, maxT: maxT, lastT: lastT, started: started, outOfOrder: outOfOrder},
	}
	return det, dec, nil
}

// Decode is Load for bytes already in memory; data is not retained.
//
//histburst:decoder
func Decode(data []byte) (*Detector, error) {
	det, dec, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	tree, err := dyadic.DecodeTree(dec, det.cfg.gamma)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	if tree.K() != roundPow2(det.k) {
		return nil, fmt.Errorf("histburst: corrupt detector file: id space %d does not match index over %d", det.k, tree.K())
	}
	det.setTree(tree)
	if err := dec.Close(); err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	if err := det.checkBase(); err != nil {
		return nil, err
	}
	return det, nil
}

// checkBase holds a decoded leaf summary to the header it was stored under:
// every id is folded by K and hashed by (d, w, seed), so a summary of any
// other shape would answer for the wrong cells without failing.
// dyadic.DecodeTree has pinned every level to the leaf and to its height — a
// collision-free leaf has a cell per id, a Count-Min one more ids than cells
// — so what is left is that a Count-Min leaf is the (d, w, seed) sketch the
// configuration builds. A collision-free leaf may stand where a sketch would
// be built today, since downsampling narrows w and leaves a collision-free
// level as it is.
func (d *Detector) checkBase() error {
	b, c := d.base, d.cfg
	if b.CollisionFree() {
		return nil
	}
	if bd, bw := b.Dims(); bd != c.d || bw != c.w || b.Seed() != c.seed {
		return fmt.Errorf("histburst: corrupt detector file: leaf level is a %d×%d sketch seeded %d under a %d×%d configuration seeded %d",
			bd, bw, b.Seed(), c.d, c.w, c.seed)
	}
	return nil
}
