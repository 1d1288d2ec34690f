//go:build !race

package core

// raceDetector reports whether the tests were built with -race, under which
// sync.Pool drops a quarter of what is Put on purpose.
const raceDetector = false
