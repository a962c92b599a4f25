//go:build !race

package nucanet

const raceEnabled = false
