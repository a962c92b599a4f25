//go:build race

package nucanet

// raceEnabled is true under -race, whose instrumentation (and its
// randomised sync.Pool) moves allocation counts.
const raceEnabled = true
