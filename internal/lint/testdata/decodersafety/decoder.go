// Package fixture is a histlint golden fixture: each want-comment
// asserts one decodersafety diagnostic on its line.
package fixture

// reader stands in for binenc.Reader; decodersafety matches SliceLen by
// method name so the fixture stays self-contained.
type reader struct{ buf []byte }

func (r *reader) SliceLen(max, minElemBytes int) int { return 0 }
func (r *reader) Uvarint() uint64                    { return 0 }

//histburst:decoder
func decodeBad(r *reader) []int64 {
	n := int(r.Uvarint())
	out := make([]int64, n) // want "does not flow through binenc.SliceLen"
	return out
}

//histburst:decoder
func decodeBadTuple(r *reader, counts map[string]int) [][]byte {
	n, ok := counts["rows"]
	if !ok {
		return nil
	}
	return make([][]byte, n) // want "does not flow through binenc.SliceLen"
}

//histburst:decoder
func decodeGood(r *reader) []int64 {
	n := r.SliceLen(1<<20, 8)
	out := make([]int64, n)
	return out
}

//histburst:decoder
func decodeGoodArith(r *reader) []byte {
	n := r.SliceLen(1<<20, 1)
	return make([]byte, 2*n+16)
}

//histburst:decoder
func decodeGoodMin(r *reader, planned int) []byte {
	n := r.SliceLen(1<<20, 1)
	return make([]byte, min(planned, 4*n))
}

//histburst:decoder
func decodeBadMin(r *reader, planned int) []byte {
	n := int(r.Uvarint())
	return make([]byte, min(planned, n)) // want "does not flow through binenc.SliceLen"
}

//histburst:decoder
func decodeConst(r *reader) []byte {
	return make([]byte, 64)
}

// unannotated is out of scope: no //histburst:decoder, no finding.
func unannotated(r *reader) []int64 {
	n := int(r.Uvarint())
	return make([]int64, n)
}
