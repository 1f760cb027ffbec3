package pbe

// Estimator3 is implemented by estimators that can evaluate three ascending
// instants t0 ≤ t1 ≤ t2 in one call, sharing and narrowing the segment
// search across them. Burstiness uses it to answer the point query's three
// F̃ evaluations with one pass instead of three independent searches.
type Estimator3 interface {
	// Estimate3 returns (F̃(t0), F̃(t1), F̃(t2)) for t0 ≤ t1 ≤ t2. Results
	// are identical to three Estimate calls.
	Estimate3(t0, t1, t2 int64) (f0, f1, f2 float64)
}
