// Package gclock provides the global-clock implementations used by the STMs:
// the classic GV4 clock of TL2 and the deferred clock of DCTL, which is also
// the clock Multiverse builds on (paper §3: "Similar to DCTL, the leading
// STM, we use a global clock").
package gclock

import "sync/atomic"

// pad keeps the hot clock word on its own cache line.
type pad [56]byte

// Clock is a shared monotonic counter.
type Clock struct {
	_ pad
	v atomic.Uint64
	_ pad
}

// Load returns the current clock value.
func (c *Clock) Load() uint64 { return c.v.Load() }

// Set initializes the clock (not for concurrent use).
func (c *Clock) Set(v uint64) { c.v.Store(v) }

// Increment atomically bumps the clock and returns the new value. DCTL and
// Multiverse call this only on aborts ("deferred clock", paper Listing 1
// line 30), which is what keeps read-only and conflict-free workloads from
// serializing on the clock cache line.
func (c *Clock) Increment() uint64 { return c.v.Add(1) }

// TickGV4 advances the clock by one using TL2's GV4 policy: a failed CAS is
// treated as success because some concurrent committer already advanced the
// clock, and its new value can be used as this transaction's commit
// timestamp. It returns the commit version to use and whether this caller's
// own CAS won: only a winner may conclude from wv == rv+1 that no commit
// interleaved since it sampled rv (the loser shares wv with the winner, who
// committed concurrently).
func (c *Clock) TickGV4() (wv uint64, won bool) {
	old := c.v.Load()
	if c.v.CompareAndSwap(old, old+1) {
		return old + 1, true
	}
	// Another committer advanced the clock for us (GV4: "pass on failure").
	return c.v.Load(), false
}
