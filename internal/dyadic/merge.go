package dyadic

import (
	"fmt"
	"slices"

	"histburst/internal/cmpbe"
)

// MergeTrees builds the tree of parts concatenated: trees over mutually
// exclusive time ranges of one stream, in time order, built with equivalent
// level factories (same shapes and seeds). Every level merges all its
// counterparts in one pass through cmpbe.MergeSketches. Sources must hold
// finished (sealed) summaries; they are only read.
func MergeTrees(parts []*Tree) (*Tree, error) {
	if len(parts) == 0 || parts[0] == nil {
		return nil, fmt.Errorf("dyadic: merge of zero trees")
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p == nil {
			return nil, fmt.Errorf("dyadic: cannot merge nil tree")
		}
		if err := sameShape(first, p); err != nil {
			return nil, err
		}
	}
	levels := make([]Level, len(first.levels))
	for i := range levels {
		srcs, err := levelsAt(parts, i)
		if err == nil {
			levels[i], err = cmpbe.MergeSketches(srcs)
		}
		if err != nil {
			return nil, fmt.Errorf("dyadic: level %d: %w", i, err)
		}
	}
	return &Tree{Index: IndexOf(first.Shape, levels), levels: levels, k: first.k}, nil
}

// sameShape reports whether two trees keep the same heights over the same id
// space — what merging or downsampling them level by level requires.
func sameShape(a, b *Tree) error {
	if a.k != b.k || !slices.Equal(a.heights, b.heights) {
		return fmt.Errorf("dyadic: shape mismatch (k=%d/%d, heights=%v/%v)", a.k, b.k, a.heights, b.heights)
	}
	return nil
}

// levelsAt returns level i of every tree, each the CM-PBE level it must be to
// merge or downsample; the exact levels the pruning tests substitute are not.
func levelsAt(parts []*Tree, i int) ([]*cmpbe.Sketch, error) {
	out := make([]*cmpbe.Sketch, len(parts))
	for k, p := range parts {
		l, ok := p.levels[i].(*cmpbe.Sketch)
		if !ok {
			return nil, fmt.Errorf("level type %T is not a CM-PBE level", p.levels[i])
		}
		out[k] = l
	}
	return out, nil
}
