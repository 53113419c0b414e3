//go:build race

package ds_test

// raceEnabled skips the allocation pins: sync.Pool drops items on purpose
// under the race detector.
const raceEnabled = true
