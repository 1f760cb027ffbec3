package segstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strings"

	"histburst"
	"histburst/internal/atomicfile"
	"histburst/internal/binenc"
)

// The manifest is the store's segment directory: one CRC-checked binenc
// record naming every live segment file, in the style of the detector
// format. It is the single point of atomicity for the whole store — a seal
// or compaction becomes visible exactly when the rewritten manifest lands
// via rename, so a crash at any byte offset of any write leaves the
// previous generation fully intact (its manifest references only files that
// were fsynced before the manifest was). Files not referenced by the
// manifest are swept at open.

// ManifestName is the manifest's file name within a store directory.
const ManifestName = "MANIFEST.hbm"

// manifestMagic identifies the manifest format ("HBM4"): the sketch
// parameters, then the live and quarantined segment lists, each SegmentMeta
// carrying its fidelity metadata (decay tier, effective γ, Count-Min width,
// time resolution). It is the only generation written or read; any other is
// refused by version.
var manifestMagic = []byte{'H', 'B', 'M', 4}

// crcTable is the Castagnoli polynomial, matching the detector footer.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decoder bounds: a manifest beyond these is certainly corrupt.
const (
	maxManifestSegments = 1 << 20
	maxFileNameLen      = 255
	maxEventSpace       = 1 << 48
	maxSketchDim        = 1 << 24
)

// SegmentMeta describes one sealed segment in a manifest.
type SegmentMeta struct {
	// ID is the segment's store-unique identifier (monotonic issue order).
	ID uint64
	// File is the segment's detector file base name within the store
	// directory (empty for volatile stores).
	File string
	// Start and End delimit the time span [Start, End] the segment is
	// responsible for: the bounds of the data it holds.
	Start, End int64
	// MinT and MaxT bound the timestamps actually ingested.
	MinT, MaxT int64
	// Elements is the segment's ingested element count.
	Elements int64
	// Compacted marks segments produced by merging smaller ones.
	Compacted bool

	// Fidelity metadata. Zero values mean full fidelity: tier 0 with
	// the store's configured γ and width and per-instant time resolution.

	// Tier is the decay tier that produced this segment (0 = never decayed).
	Tier int
	// Gamma is the per-cell PBE-2 error cap in force for this segment
	// (0 = the store's configured Gamma).
	Gamma float64
	// W is the segment's Count-Min width (0 = the store's configured W).
	W int
	// Res is the time-resolution grid of retained curve detail: estimates
	// are γ-accurate at res-aligned instants and may additionally lag by the
	// true count change within a grid cell between them (0 or 1 = exact
	// instants).
	Res int64
}

// EffectiveGamma returns the per-cell error cap in force for the segment.
func (g SegmentMeta) EffectiveGamma(storeGamma float64) float64 {
	if g.Gamma != 0 {
		return g.Gamma
	}
	return storeGamma
}

// EffectiveRes returns the segment's time-resolution grid (minimum 1).
func (g SegmentMeta) EffectiveRes() int64 {
	if g.Res > 1 {
		return g.Res
	}
	return 1
}

// effectiveParams returns the sketch parameters the segment's detector file
// must carry: the store's, with the fidelity overrides a decay pass applied.
func (g SegmentMeta) effectiveParams(base histburst.SketchParams) histburst.SketchParams {
	if g.Gamma != 0 {
		base.Gamma = g.Gamma
	}
	if g.W != 0 {
		base.W = g.W
	}
	return base
}

// maxDecayTiers bounds the tier index a manifest may carry; decay policies
// are age-doubling, so even a century-deep store stays far below this.
const maxDecayTiers = 64

// validFidelity rejects fidelity metadata no decay pass could have written.
func (g SegmentMeta) validFidelity() error {
	if g.Tier < 0 || g.Tier > maxDecayTiers {
		return fmt.Errorf("segstore: corrupt manifest: segment %d tier %d out of range", g.ID, g.Tier)
	}
	if g.Gamma < 0 || math.IsNaN(g.Gamma) || math.IsInf(g.Gamma, 0) {
		return fmt.Errorf("segstore: corrupt manifest: segment %d gamma %v is not a valid error cap", g.ID, g.Gamma)
	}
	if g.W < 0 || g.W > maxSketchDim {
		return fmt.Errorf("segstore: corrupt manifest: segment %d implausible width %d", g.ID, g.W)
	}
	if g.Res < 0 {
		return fmt.Errorf("segstore: corrupt manifest: segment %d negative resolution %d", g.ID, g.Res)
	}
	return nil
}

// Manifest is the decoded segment directory.
type Manifest struct {
	// Generation counts manifest rewrites; every seal or compaction swap
	// increments it, so "old generation intact" is checkable after a crash.
	Generation uint64
	// NextID is the next segment ID to issue.
	NextID uint64
	// Params pins the sketch configuration every segment file must match.
	Params histburst.SketchParams
	// Segments lists the live segments in ascending time order.
	Segments []SegmentMeta
	// Quarantined lists segments removed from service because their files
	// failed verification. Their files live under quarantine/; their
	// metadata is retained so the store can report the missing spans (and
	// keep its durable element count honest for WAL replay).
	Quarantined []SegmentMeta
}

// Encode serializes the manifest with its CRC32-C footer.
func (m *Manifest) Encode() []byte {
	var enc binenc.Writer
	enc.BytesBlob(manifestMagic)
	enc.Uvarint(m.Generation)
	enc.Uvarint(m.NextID)
	p := m.Params
	enc.Uvarint(p.K)
	enc.Int64(p.Seed)
	enc.Uvarint(uint64(p.D))
	enc.Uvarint(uint64(p.W))
	enc.Float64(p.Gamma)
	encodeSegmentMetas(&enc, m.Segments)
	encodeSegmentMetas(&enc, m.Quarantined)
	enc.Uint32(crc32.Checksum(enc.Bytes(), crcTable))
	return enc.Bytes()
}

func encodeSegmentMetas(enc *binenc.Writer, metas []SegmentMeta) {
	enc.Uvarint(uint64(len(metas)))
	for _, g := range metas {
		enc.Uvarint(g.ID)
		enc.BytesBlob([]byte(g.File))
		enc.Varint(g.Start)
		enc.Varint(g.End)
		enc.Varint(g.MinT)
		enc.Varint(g.MaxT)
		enc.Varint(g.Elements)
		enc.Bool(g.Compacted)
		enc.Uvarint(uint64(g.Tier))
		enc.Float64(g.Gamma)
		enc.Uvarint(uint64(g.W))
		enc.Varint(g.Res)
	}
}

// minSegmentMetaBytes is the least a SegmentMeta can occupy on the wire:
// one byte each for ID, the File length prefix, the five varints, the
// Compacted flag, Tier, W and Res, plus the fixed eight of Gamma.
const minSegmentMetaBytes = 19

// DecodeManifest parses a manifest record. Corrupt or truncated input of
// any shape yields an error, never a panic, and cannot trigger allocations
// beyond a small multiple of the input size.
//
//histburst:decoder
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("segstore: corrupt manifest: missing checksum footer")
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(footer)
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("segstore: corrupt manifest: checksum mismatch (%08x != %08x)", got, want)
	}
	dec := binenc.NewReader(body)
	magic := dec.BytesBlob()
	if !bytes.Equal(magic, manifestMagic) {
		if len(magic) == 4 && bytes.Equal(magic[:3], manifestMagic[:3]) {
			return nil, fmt.Errorf("segstore: unsupported manifest format HBM%d (this build reads HBM4 only)", magic[3])
		}
		return nil, fmt.Errorf("segstore: bad magic (not a manifest)")
	}
	var m Manifest
	m.Generation = dec.Uvarint()
	m.NextID = dec.Uvarint()
	m.Params.K = dec.Uvarint()
	m.Params.Seed = dec.Int64()
	m.Params.D = int(dec.Uvarint())
	m.Params.W = int(dec.Uvarint())
	m.Params.Gamma = dec.Float64()
	var err error
	if m.Segments, err = decodeSegmentMetas(dec); err != nil {
		return nil, err
	}
	if m.Quarantined, err = decodeSegmentMetas(dec); err != nil {
		return nil, err
	}
	if err := dec.Close(); err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// decodeSegmentMetas parses one length-prefixed SegmentMeta list.
//
//histburst:decoder
func decodeSegmentMetas(dec *binenc.Reader) ([]SegmentMeta, error) {
	n := dec.SliceLen(maxManifestSegments, minSegmentMetaBytes)
	metas := make([]SegmentMeta, n)
	for i := range metas {
		g := &metas[i]
		g.ID = dec.Uvarint()
		name := dec.BytesBlob()
		if len(name) > maxFileNameLen {
			return nil, fmt.Errorf("segstore: corrupt manifest: segment file name of %d bytes", len(name))
		}
		g.File = string(name)
		g.Start = dec.Varint()
		g.End = dec.Varint()
		g.MinT = dec.Varint()
		g.MaxT = dec.Varint()
		g.Elements = dec.Varint()
		g.Compacted = dec.Bool()
		g.Tier = int(dec.Uvarint())
		g.Gamma = dec.Float64()
		g.W = int(dec.Uvarint())
		g.Res = dec.Varint()
	}
	return metas, nil
}

// validate rejects decoded manifests that are structurally impossible —
// defense in depth behind the CRC, and the path-traversal guard for file
// names that get joined onto the store directory.
func (m *Manifest) validate() error {
	p := m.Params
	if p.K == 0 || p.K > maxEventSpace {
		return fmt.Errorf("segstore: corrupt manifest: implausible id space %d", p.K)
	}
	if p.D <= 0 || p.W <= 0 || p.D > maxSketchDim || p.W > maxSketchDim {
		return fmt.Errorf("segstore: corrupt manifest: implausible sketch dimensions %d×%d", p.D, p.W)
	}
	for i, g := range m.Segments {
		if g.File != "" && !validSegmentFileName(g.File) {
			return fmt.Errorf("segstore: corrupt manifest: unsafe segment file name %q", g.File)
		}
		if g.Start > g.End || g.MinT > g.MaxT || g.Elements < 0 {
			return fmt.Errorf("segstore: corrupt manifest: segment %d spans are inverted", g.ID)
		}
		if g.ID >= m.NextID {
			return fmt.Errorf("segstore: corrupt manifest: segment ID %d at or past next ID %d", g.ID, m.NextID)
		}
		if i > 0 && g.MinT < m.Segments[i-1].MaxT {
			return fmt.Errorf("segstore: corrupt manifest: segment %d out of time order", g.ID)
		}
		if err := g.validFidelity(); err != nil {
			return err
		}
	}
	// Quarantined segments keep their metas but not their order: they are
	// pulled out of the live sequence one at a time, so only per-meta shape
	// is checked.
	for _, g := range m.Quarantined {
		if g.File != "" && !validSegmentFileName(g.File) {
			return fmt.Errorf("segstore: corrupt manifest: unsafe quarantined file name %q", g.File)
		}
		if g.Start > g.End || g.MinT > g.MaxT || g.Elements < 0 {
			return fmt.Errorf("segstore: corrupt manifest: quarantined segment %d spans are inverted", g.ID)
		}
		if g.ID >= m.NextID {
			return fmt.Errorf("segstore: corrupt manifest: quarantined segment ID %d at or past next ID %d", g.ID, m.NextID)
		}
		if err := g.validFidelity(); err != nil {
			return err
		}
	}
	return nil
}

// validSegmentFileName accepts only clean base names: a manifest must never
// be able to point loads (or the orphan sweep) outside the store directory.
func validSegmentFileName(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\")
}

// WriteManifest persists the manifest to path atomically (temp file →
// fsync → rename), so a crash leaves either the previous manifest or the
// complete new one.
func WriteManifest(path string, m *Manifest) error {
	return atomicfile.WriteFile(path, m.Encode())
}

// LoadManifest reads and decodes a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
