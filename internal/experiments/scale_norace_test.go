//go:build !race

package experiments

// raceScale is 1 without the race detector: the plain run is the full-scale
// one (see scale_race_test.go).
const raceScale = 1
