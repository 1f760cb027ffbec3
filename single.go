package histburst

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"

	"histburst/internal/binenc"
	"histburst/internal/pbe"
	"histburst/internal/pbe2"
)

// Single summarizes one event's stream (the paper's Section III setting):
// a sequence of timestamps, no event ids, no Count-Min sharding. Use it
// when you track a known event — it is smaller and strictly more accurate
// than a Detector, with PBE-2's per-stream guarantees: F within [F−γ, F]
// and burstiness within 4γ.
type Single struct {
	p *pbe2.Builder
}

// NewSingle creates a single-event summary. It accepts the estimator option
// (WithPBE2); sketch- and index-related options are meaningless here and are
// rejected so misconfiguration is loud.
func NewSingle(opts ...Option) (*Single, error) {
	c := config{seed: 1, d: 5, w: 272, gamma: 8}
	marker := c
	for _, o := range opts {
		o(&c)
	}
	if c.d != marker.d || c.w != marker.w || c.seed != marker.seed {
		return nil, fmt.Errorf("histburst: NewSingle accepts only the WithPBE2 option")
	}
	p, err := pbe2.New(c.gamma)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	return &Single{p: p}, nil
}

// Append ingests one arrival at time t (non-decreasing; earlier timestamps
// are clamped by the underlying estimator).
func (s *Single) Append(t int64) { s.p.Append(t) }

// Finish flushes internal buffers. Idempotent; Append may follow.
func (s *Single) Finish() { s.p.Finish() }

// N returns the number of arrivals ingested.
func (s *Single) N() int64 { return s.p.Count() }

// CumulativeFrequency returns F̃(t).
func (s *Single) CumulativeFrequency(t int64) float64 { return s.p.Estimate(t) }

// Burstiness answers the POINT QUERY for burst span tau > 0.
func (s *Single) Burstiness(t, tau int64) (float64, error) {
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return 0, fmt.Errorf("histburst: %w", err)
	}
	return pbe.Burstiness(s.p, t, sp), nil
}

// BurstyTimes answers the BURSTY TIME QUERY over [0, horizon]: the point
// query swept over the summary's shifted breakpoints.
func (s *Single) BurstyTimes(theta float64, tau, horizon int64) ([]TimeRange, error) {
	if err := pbe.CheckTimesTheta(theta); err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	sp, err := pbe.NewSpan(tau)
	if err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	burst := func(t int64) float64 { return pbe.Burstiness(s.p, t, sp) }
	internal := pbe.BurstyTimes(s.p.Breakpoints(), burst, theta, sp, horizon)
	out := make([]TimeRange, len(internal))
	for i, r := range internal {
		out[i] = TimeRange{Start: r.Start, End: r.End}
	}
	return out, nil
}

// Bytes returns the summary footprint.
func (s *Single) Bytes() int { return s.p.Bytes() }

// MergeAppend absorbs a summary built over a strictly later time range
// with identical options. Both are finished; a refused merge leaves the
// receiver as it was.
func (s *Single) MergeAppend(other *Single) error {
	if other == nil {
		return fmt.Errorf("histburst: cannot merge nil summary")
	}
	merged, err := pbe2.MergeFinished([]*pbe2.Summary{s.p.Seal(), other.p.Seal()})
	if err != nil {
		return err
	}
	s.p = merged
	return nil
}

// Serialized single-event summary: the magic, the frontier the summary's cell
// block is written against (its last arrival, zero when it has none), the
// summary as a one-cell block — the form every cell of a detector takes — and
// the CRC32-C footer a detector file ends in, over everything before it, so
// a torn or bit-flipped file fails to load instead of answering for a
// different stream. A file of another version is refused by name.
var singleMagic = []byte{'H', 'B', 'S', 3}

// Save writes the summary's complete state (flushing it first).
func (s *Single) Save(w io.Writer) error {
	sum := s.p.Seal()
	var enc binenc.Writer
	enc.BytesBlob(singleMagic)
	enc.Varint(sum.Frontier())
	if err := pbe2.EncodeBlock(&enc, []*pbe2.Summary{sum}, sum.Frontier()); err != nil {
		return fmt.Errorf("histburst: %w", err)
	}
	enc.Uint32(crc32.Checksum(enc.Bytes(), crcTable))
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(enc.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSingle reads a summary written by Single.Save.
//
//histburst:decoder
func LoadSingle(r io.Reader) (*Single, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	magic := binenc.NewReader(data).BytesBlob()
	if !bytes.Equal(magic, singleMagic) {
		if len(magic) == 4 && bytes.Equal(magic[:3], singleMagic[:3]) {
			return nil, fmt.Errorf("histburst: unsupported single-event summary format HBS%d (this build reads HBS3 only)", magic[3])
		}
		return nil, fmt.Errorf("histburst: bad magic (not a single-event summary)")
	}
	body, err := checkedBody(data, "single-event summary")
	if err != nil {
		return nil, err
	}
	dec := binenc.NewReader(body)
	dec.BytesBlob() // magic, verified above
	frontier := dec.Varint()
	cell := make([]pbe2.Builder, 1)
	if err := pbe2.DecodeBlock(dec, cell, frontier); err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	if err := dec.Close(); err != nil {
		return nil, fmt.Errorf("histburst: %w", err)
	}
	// The block is written against the summary's own frontier, so that a
	// summary has one encoding.
	if got := cell[0].Frontier(); got != frontier {
		return nil, fmt.Errorf("histburst: corrupt single-event summary: block written against frontier %d, its last arrival is at %d", frontier, got)
	}
	return &Single{p: &cell[0]}, nil
}
