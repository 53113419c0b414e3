//go:build !race

package replica

// raceEnabled skips the allocation pin: the race detector's instrumentation
// is not what it measures.
const raceEnabled = false
