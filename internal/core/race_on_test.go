//go:build race

package core

// raceDetector reports whether the test binary was built with -race,
// under which sync.Pool drops a quarter of its Puts on purpose.
const raceDetector = true
