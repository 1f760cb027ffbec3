package segstore

import (
	"bytes"
	"hash/crc32"
	"testing"

	"histburst"
	"histburst/internal/binenc"
)

// encodeLegacyManifest reproduces the retired HBM1–HBM3 wire layouts (each
// with the event-index flag after the sketch parameters; HBM1 and HBM2
// without the per-segment fidelity fields, HBM1 without the quarantine list)
// so the fuzz corpus and the must-reject tests exercise genuine
// old-generation bytes.
func encodeLegacyManifest(m *Manifest, version int) []byte {
	var enc binenc.Writer
	enc.BytesBlob([]byte{'H', 'B', 'M', byte(version)})
	enc.Uvarint(m.Generation)
	enc.Uvarint(m.NextID)
	p := m.Params
	enc.Uvarint(p.K)
	enc.Int64(p.Seed)
	enc.Uvarint(uint64(p.D))
	enc.Uvarint(uint64(p.W))
	enc.Float64(p.Gamma)
	enc.Bool(false) // event index disabled
	if version == 3 {
		encodeSegmentMetas(&enc, m.Segments)
		encodeSegmentMetas(&enc, m.Quarantined)
		enc.Uint32(crc32.Checksum(enc.Bytes(), crcTable))
		return enc.Bytes()
	}
	legacy := func(metas []SegmentMeta) {
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
		}
	}
	legacy(m.Segments)
	if version == 2 {
		legacy(m.Quarantined)
	}
	enc.Uint32(crc32.Checksum(enc.Bytes(), crcTable))
	return enc.Bytes()
}

// FuzzManifestLoad targets the manifest decode path the same way
// FuzzDetectorLoad targets the detector's: valid blobs, retired-generation
// blobs (must be refused, not decoded), their truncations, and bit flips.
// DecodeManifest must never panic, never allocate unboundedly, and anything
// it accepts must survive an encode/decode round-trip unchanged.
func FuzzManifestLoad(f *testing.F) {
	params := histburst.SketchParams{K: 64, Seed: 7, D: 3, W: 32, Gamma: 2}
	for _, m := range []*Manifest{
		{NextID: 1, Params: params},
		{Generation: 1}, // CRC-valid but sketch params unset: must be refused
		{Generation: 9, NextID: 4, Params: params, Segments: []SegmentMeta{
			{ID: 0, File: segFileName(0), Start: -10, End: 5, MinT: -10, MaxT: 5, Elements: 12},
			{ID: 3, File: segFileName(3), Start: 5, End: 40, MinT: 5, MaxT: 40, Elements: 90, Compacted: true},
		}},
		{Generation: 1, NextID: 2, Params: histburst.SketchParams{K: 1 << 20, Seed: -3, D: 5, W: 272, Gamma: 8},
			Segments: []SegmentMeta{
				{ID: 1, File: "", Start: 0, End: 0, MinT: 0, MaxT: 0, Elements: 1},
			}},
		// Fidelity metadata: a decayed tier ladder plus a quarantined decayed
		// segment.
		{Generation: 12, NextID: 9, Params: params,
			Segments: []SegmentMeta{
				{ID: 7, File: segFileName(7), Start: 0, End: 99, MinT: 0, MaxT: 99, Elements: 400,
					Compacted: true, Tier: 2, Gamma: 32, W: 4, Res: 3600},
				{ID: 6, File: segFileName(6), Start: 100, End: 150, MinT: 100, MaxT: 150, Elements: 80,
					Compacted: true, Tier: 1, Gamma: 8, W: 8, Res: 60},
				{ID: 5, File: segFileName(5), Start: 151, End: 160, MinT: 151, MaxT: 160, Elements: 16},
			},
			Quarantined: []SegmentMeta{
				{ID: 2, File: segFileName(2), Start: 200, End: 210, MinT: 200, MaxT: 210, Elements: 9,
					Tier: 1, Gamma: 8, W: 8, Res: 60},
			}},
	} {
		for _, data := range [][]byte{m.Encode(), encodeLegacyManifest(m, 1), encodeLegacyManifest(m, 2), encodeLegacyManifest(m, 3)} {
			f.Add(data)
			for _, cut := range []int{1, 4, 8, len(data) / 2, len(data) - 1} {
				if cut < len(data) {
					f.Add(data[:cut])
				}
			}
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)/2] ^= 0x20
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("HBM\x04 nearly"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		re, err := DecodeManifest(m.Encode())
		if err != nil {
			t.Fatalf("accepted manifest does not re-decode: %v", err)
		}
		if re.Generation != m.Generation || re.NextID != m.NextID || re.Params != m.Params ||
			len(re.Segments) != len(m.Segments) {
			t.Fatalf("round-trip changed the manifest: %+v vs %+v", m, re)
		}
		for i := range m.Segments {
			if re.Segments[i] != m.Segments[i] {
				t.Fatalf("round-trip changed segment %d: %+v vs %+v", i, m.Segments[i], re.Segments[i])
			}
		}
	})
}
