// Package vlock implements the versioned locks and the lock table shared by
// the word-based STMs in this repository (Multiverse, TL2, DCTL, TinySTM).
//
// A versioned lock packs the tuple [locked, flag, tid, version] from the
// paper's Listing 2 into a single 64-bit word:
//
//	bit 63      locked   — held by an update transaction
//	bit 62      flag     — held solely to version the address (Multiverse);
//	                       concurrent accesses wait while the flag is set
//	bits 48..61 tid      — owner thread id (14 bits)
//	bits  0..47 version  — global-clock timestamp of the last release
//
// The lock table is a flat array indexed by a hash of the protected Word's
// address; Multiverse's VLT and bloom-filter tables use the same size and
// mapping so one lock protects an address and its version list (paper §3.1).
package vlock

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/stm"
)

// State is the packed 64-bit lock word.
type State uint64

const (
	lockedBit  = 1 << 63
	flagBit    = 1 << 62
	tidShift   = 48
	tidMask    = (1<<14 - 1) << tidShift
	VersionMax = 1<<48 - 1 // largest representable version
)

// Pack builds a lock state.
func Pack(locked, flag bool, tid int, version uint64) State {
	s := State(version & VersionMax)
	s |= State(uint64(tid)&(1<<14-1)) << tidShift
	if locked {
		s |= lockedBit
	}
	if flag {
		s |= flagBit
	}
	return s
}

// Locked reports whether the lock is held by an updater.
func (s State) Locked() bool { return s&lockedBit != 0 }

// Flagged reports whether the lock is held solely to version the address.
func (s State) Flagged() bool { return s&flagBit != 0 }

// Held reports whether the lock is held for any reason.
func (s State) Held() bool { return s&(lockedBit|flagBit) != 0 }

// TID returns the owner thread id (meaningful only while held).
func (s State) TID() int { return int((uint64(s) & tidMask) >> tidShift) }

// Version returns the release timestamp.
func (s State) Version() uint64 { return uint64(s) & VersionMax }

// AbortReason classifies a failed validation against s: a lock held by
// another transaction is contention; an advanced version is a stale read
// clock.
func (s State) AbortReason() obs.AbortReason {
	if s.Held() {
		return obs.ReasonLockBusy
	}
	return obs.ReasonValidation
}

// Lock is one slot of the lock table.
type Lock struct{ v atomic.Uint64 }

// Load atomically reads the lock state.
func (l *Lock) Load() State { return State(l.v.Load()) }

// CompareAndSwap installs new if the state is still old.
func (l *Lock) CompareAndSwap(old, new State) bool {
	return l.v.CompareAndSwap(uint64(old), uint64(new))
}

// Store atomically writes the state. Only valid for the current owner (a
// release or an owner-side mutation such as clearing the flag bit).
func (l *Lock) Store(s State) { l.v.Store(uint64(s)) }

// TryAcquire attempts to claim the lock for an updater with the given tid,
// preserving the current version. It fails if the lock is held.
func (l *Lock) TryAcquire(tid int) (State, bool) {
	old := l.Load()
	if old.Held() {
		return old, false
	}
	new := Pack(true, false, tid, old.Version())
	if l.CompareAndSwap(old, new) {
		return old, true
	}
	return l.Load(), false
}

// TryFlag attempts to claim the lock solely for versioning (Multiverse's
// lockAndFlag). It fails if the lock is held.
func (l *Lock) TryFlag(tid int) (State, bool) {
	old := l.Load()
	if old.Held() {
		return old, false
	}
	new := Pack(false, true, tid, old.Version())
	if l.CompareAndSwap(old, new) {
		return old, true
	}
	return l.Load(), false
}

// Release stores an unlocked state with the given version.
func (l *Lock) Release(version uint64) { l.Store(Pack(false, false, 0, version)) }

// Table is a fixed-size lock table.
type Table struct {
	locks []Lock
	mask  uint64
}

// NewTable creates a table with size rounded up to a power of two (minimum
// 64 slots).
func NewTable(size int) *Table {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Table{locks: make([]Lock, n), mask: uint64(n - 1)}
}

// Len returns the number of slots.
func (t *Table) Len() int { return len(t.locks) }

// IndexOf maps a Word to its table slot. Multiverse's VLT and bloom tables
// reuse this mapping.
func (t *Table) IndexOf(w *stm.Word) uint64 {
	return stm.Mix64(uint64(addrOf(w))) & t.mask
}

// Hash returns the full 64-bit address hash; its low bits (under Mask) give
// the table index and its high bits feed the bloom filters.
func (t *Table) Hash(w *stm.Word) uint64 { return stm.Mix64(uint64(addrOf(w))) }

// Mask returns the index mask (table size minus one).
func (t *Table) Mask() uint64 { return t.mask }

// At returns the lock at slot i.
func (t *Table) At(i uint64) *Lock { return &t.locks[i] }

// Of returns the lock protecting w.
func (t *Table) Of(w *stm.Word) *Lock { return &t.locks[t.IndexOf(w)] }
