package segstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"histburst"
	"histburst/internal/cmpbe"
)

// A Segment is one immutable time slice of the history: a finished PBE-2
// detector covering [MinT, MaxT], plus the manifest metadata describing it.
// Segments are never mutated after publication — a merge or decay reads the
// finished ones and swaps a new Segment in (rebuildOnce) — so queries read
// them without locks.
//
// A segment a seal, merge or decay just built is resident: its detector is
// in memory. One recovered by Open is only verified: it holds the bytes of
// its file — checked against the manifest as far as bytes can be (see
// Store.verifySegment) — and decodes them when a query, merge or decay first
// needs the detector. Whatever only describes a segment reads meta and
// bytes() and leaves it as it is.
type Segment struct {
	meta SegmentMeta

	// det is the decoded detector, nil until first touch; immutable once
	// set and queried read-only.
	//
	//histburst:atomic
	det atomic.Pointer[histburst.Detector]

	// fileBytes is the size of the verified file a recovered segment was
	// opened from (0 for one built in this process). Immutable.
	fileBytes int
	// owner quarantines the segment if its verified bytes fail to decode,
	// and logs the first touch. Immutable; set whenever raw is.
	owner *Store

	mu sync.Mutex
	// raw is guarded by mu: the verified file bytes, dropped by the first
	// touch whether or not they decoded.
	raw []byte
}

// residentSegment wraps a detector built in this process.
func residentSegment(meta SegmentMeta, det *histburst.Detector) *Segment {
	g := &Segment{meta: meta}
	g.det.Store(det)
	return g
}

// detector returns the segment's detector, decoding it on first touch, or
// nil when the verified bytes turned out not to decode — the segment is
// then already on its way to quarantine and callers answer without it.
// Must not be called with Store.mu held: a failed decode takes it.
func (g *Segment) detector() *histburst.Detector {
	if det := g.det.Load(); det != nil {
		return det
	}
	return g.decode()
}

// decode is the first touch. Concurrent first touches queue on mu and find
// the detector the first of them stored.
func (g *Segment) decode() *histburst.Detector {
	g.mu.Lock()
	if det := g.det.Load(); det != nil || g.raw == nil {
		g.mu.Unlock()
		return det
	}
	t0 := time.Now()
	det, err := histburst.Decode(g.raw)
	g.raw = nil
	if err == nil {
		g.det.Store(det)
	}
	g.mu.Unlock()
	if err != nil {
		// The checksum held, so this is not rot: the file was written wrong
		// or replaced. Same remedy — out of service, evidence kept.
		if qerr := g.owner.quarantine(g.meta, fmt.Errorf("segstore: segment %d: %w", g.meta.ID, err)); qerr != nil {
			g.owner.logf("segstore: %v", qerr)
		}
		return nil
	}
	g.owner.logf("segstore: segment %d decoded on first touch: %d elements, %d bytes, %s",
		g.meta.ID, g.meta.Elements, g.fileBytes, time.Since(t0))
	return det
}

// sketch returns kept level i of the segment's event index (0 = the
// leaves), or nil when the segment failed its first decode — it is then
// quarantined, and queries answer without it.
func (g *Segment) sketch(i int) *cmpbe.Sketch {
	det := g.detector()
	if det == nil {
		return nil
	}
	return det.EventIndex().Level(i).(*cmpbe.Sketch)
}

// resident reports whether the detector is decoded.
func (g *Segment) resident() bool { return g.det.Load() != nil }

// bytes is what the segment holds in memory now: the decoded summary when
// resident, the verified file bytes when not.
func (g *Segment) bytes() int {
	if det := g.det.Load(); det != nil {
		return det.Bytes()
	}
	return g.fileBytes
}

// level returns the segment's size class for tiered compaction: 0 for
// freshly sealed segments, climbing by one for every factor of fanout in
// element count. Compaction merges runs of equal-level neighbors, so the
// merged result lands one class up and each element is rewritten
// O(log_fanout(N/SealEvents)) times overall.
func (g *Segment) level(sealEvents int64, fanout int64) int {
	lvl := 0
	threshold := sealEvents * fanout
	for threshold > 0 && g.meta.Elements >= threshold && lvl < 62 {
		lvl++
		threshold *= fanout
	}
	return lvl
}

// SegmentInfo is the exported introspection record for one segment
// (the /v1/segments endpoint serves these). The fidelity fields are zero
// for full-fidelity segments and report the decay tier's coarser summary
// parameters otherwise.
type SegmentInfo struct {
	ID        uint64 `json:"id"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Elements  int64  `json:"elements"`
	Bytes     int    `json:"bytes"`
	File      string `json:"file,omitempty"`
	Compacted bool   `json:"compacted"`
	// Resident reports whether the segment's detector is decoded in memory;
	// Bytes is then the decoded summary, otherwise the verified file bytes
	// held until a query first touches the segment.
	Resident bool `json:"resident"`

	Tier  int     `json:"tier,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	W     int     `json:"w,omitempty"`
	Res   int64   `json:"res,omitempty"`
}
