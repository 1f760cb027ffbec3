package dyadic

import (
	"fmt"
	"math/bits"
	"slices"

	"histburst/internal/binenc"
	"histburst/internal/cmpbe"
)

// Serialization: the tree stores its shape — the id space and the kept
// heights — then every level's own serialized form, one after another.
// Loading is specific to the levels CMPBELevels builds under SteerGamma (the
// only persistent kind), given the leaf γ used at build time.

var treeMagic = []byte{'D', 'Y', 'A', 3}

// Encode appends the tree's serialized form to w: the shape, the element
// count and largest timestamp every level keeps, then the levels. Every level
// must be serializable (CM-PBE levels are; test-only exact levels are not).
func (t *Tree) Encode(w *binenc.Writer) error {
	leaf, ok := t.levels[0].(*cmpbe.Sketch)
	if !ok {
		return fmt.Errorf("dyadic: level 0 type %T is not serializable", t.levels[0])
	}
	w.BytesBlob(treeMagic)
	w.Uvarint(t.k)
	w.Varint(leaf.N())
	w.Varint(leaf.MaxTime())
	w.Uvarint(uint64(len(t.levels)))
	for _, h := range t.heights {
		w.Uvarint(uint64(h))
	}
	for i, l := range t.levels {
		m, ok := l.(interface{ Encode(*binenc.Writer) error })
		if !ok {
			return fmt.Errorf("dyadic: level %d type %T is not serializable", i, l)
		}
		if err := m.Encode(w); err != nil {
			return fmt.Errorf("dyadic: level %d: %w", i, err)
		}
	}
	return nil
}

// DecodeTree reads from r a tree serialized by Encode whose levels are
// CM-PBE summaries under SteerGamma(h, gamma) at each height h — so a
// steering level stored under the leaf's γ (or the reverse) is refused by the
// level decoder's γ check — and leaves r just past it. It accepts exactly the
// shapes CMPBELevels builds: the search indexes a level's cells by height, so
// a level of any other size would be read out of range or — folded by modulo —
// silently serve two ids from one cell. Each collision-free level has
// K>>height cells; the Count-Min levels are the lowest heights, share their
// dimensions, step their seeds by levelSeedStride from the leaf level's, and
// stand only where a collision-free level would not fit; the height list is
// the kept set for that many Count-Min levels, and the element count and
// largest timestamp the tree stores are its leaf level's. What the bytes
// cannot say — that the leaf level matches the configuration it is loaded
// under — is the caller's to check.
//
//histburst:decoder
func DecodeTree(r *binenc.Reader, gamma float64) (*Tree, error) {
	if string(r.BytesBlob()) != string(treeMagic) {
		return nil, fmt.Errorf("dyadic: bad magic")
	}
	k := r.Uvarint()
	n := r.Varint()
	maxT := r.Varint()
	nLevels := r.SliceLen(65, 2) // a height and a level each
	heights := make([]int, nLevels)
	for i := range heights {
		heights[i] = r.Len(64)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if k == 0 || k != RoundPow2(k) {
		return nil, fmt.Errorf("dyadic: implausible id space %d", k)
	}
	lgK := bits.TrailingZeros64(k)
	if err := checkHeights(heights, lgK); err != nil {
		return nil, err
	}
	levels := make([]Level, nLevels)
	sketches := 0
	for i, h := range heights {
		l, err := cmpbe.DecodeLevel(r, SteerGamma(h, gamma))
		if err != nil {
			return nil, fmt.Errorf("dyadic: level %d: %w", i, err)
		}
		levels[i] = l
		if l.CollisionFree() {
			if _, w := l.Dims(); uint64(w) != k>>h {
				return nil, fmt.Errorf("dyadic: level %d (height %d) has %d cells for %d aggregate ids", i, h, w, k>>h)
			}
			continue
		}
		if i != sketches {
			return nil, fmt.Errorf("dyadic: level %d (height %d) is a Count-Min sketch above a collision-free level", i, h)
		}
		if err := checkSketchLevel(l, levels[0].(*cmpbe.Sketch), i, h, k); err != nil {
			return nil, err
		}
		sketches++
	}
	if want := keptHeights(lgK, sketches); !slices.Equal(heights, want) {
		return nil, fmt.Errorf("dyadic: levels at heights %v; an index over %d ids with %d Count-Min levels keeps %v", heights, k, sketches, want)
	}
	if leaf := levels[0].(*cmpbe.Sketch); leaf.N() != n || leaf.MaxTime() != maxT {
		return nil, fmt.Errorf("dyadic: the leaf level holds %d elements up to %d, the tree %d up to %d", leaf.N(), leaf.MaxTime(), n, maxT)
	}
	return &Tree{Index: IndexOf(Shape{lgK, heights}, levels), levels: levels, k: k}, nil
}

// checkSketchLevel holds Count-Min level i at height h to what CMPBELevels
// builds there, given the leaf level: the leaf's dimensions, the leaf's seed
// stepped h times, and more aggregate ids than its d·w cells — otherwise the
// factory builds a collision-free level.
func checkSketchLevel(l, leaf *cmpbe.Sketch, i, h int, k uint64) error {
	d, w := l.Dims()
	ld, lw := leaf.Dims()
	if want := leaf.Seed() + int64(h)*levelSeedStride; d != ld || w != lw || l.Seed() != want {
		return fmt.Errorf("dyadic: level %d (height %d) is a %d×%d sketch seeded %d, want %d×%d seeded %d", i, h, d, w, l.Seed(), ld, lw, want)
	}
	if k>>h <= uint64(d)*uint64(w) {
		return fmt.Errorf("dyadic: level %d (height %d) is a %d×%d sketch over %d aggregate ids, which fit collision-free", i, h, d, w, k>>h)
	}
	return nil
}
