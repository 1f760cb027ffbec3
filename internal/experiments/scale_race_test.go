//go:build race

package experiments

// raceScale is the stream scale, relative to the plain run's, of the tests
// whose assertions hold at a quarter of it: under the race detector every
// build costs an order of magnitude more, and those tests are most of the
// package's race run. The tests whose assertions need their scale keep it
// (indexConfig, TestAblationLevelShape).
const raceScale = 0.25
