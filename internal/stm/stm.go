// Package stm defines the common software-transactional-memory API shared by
// every TM implementation in this repository (Multiverse and the four
// baselines TL2, DCTL, NOrec and TinySTM).
//
// The design follows the paper's "gold standard": a program adopts
// transactional memory only by replacing ordinary word-sized variables with
// the analogous transactional type (Word). No other change to the program's
// memory layout is required. Locks, version lists and bloom filters live in
// separate parallel tables keyed by the Word's address, exactly as in the
// paper.
//
// A transaction body is an ordinary Go closure receiving a Txn. The body may
// be executed several times: whenever the TM detects a conflict it aborts the
// attempt by unwinding the closure (via panic with an internal sentinel,
// Go's analogue of the paper's longjmp) and retries from the top. Bodies must
// therefore be free of external side effects other than through the Txn
// hooks (OnAbort, OnCommit, Free).
package stm

import (
	"sync/atomic"

	"repro/internal/ebr"
	"repro/internal/obs"
)

// Word is a transactional memory word. It is the only transactional type:
// programs store integers, booleans, keys, and arena node indices in Words.
// A Word's address is its identity in the TM's lock, version-list and bloom
// tables.
//
// The zero Word holds zero and is ready to use.
type Word struct{ v atomic.Uint64 }

// Load performs a raw, non-transactional atomic load. It is intended for TM
// internals and for initializing data that is not yet shared. Data-structure
// code must use Txn.Read instead.
func (w *Word) Load() uint64 { return w.v.Load() }

// Store performs a raw, non-transactional atomic store. It is intended for
// TM internals and for initializing data that is not yet shared.
func (w *Word) Store(v uint64) { w.v.Store(v) }

// CompareAndSwap performs a raw CAS on the word. TM internal use only.
func (w *Word) CompareAndSwap(old, new uint64) bool { return w.v.CompareAndSwap(old, new) }

// Txn is the per-attempt transactional context passed to transaction bodies.
type Txn interface {
	// Read returns the value of w as of this transaction's snapshot.
	// It may abort the attempt (unwinding the body) on conflict.
	Read(w *Word) uint64

	// Write transactionally writes v to w. It may abort the attempt on
	// conflict. Calling Write in a body passed to ReadOnly is a
	// programming error and panics.
	Write(w *Word, v uint64)

	// OnAbort registers rel.Release(shard, idx) to run if this attempt
	// aborts: the rollback of a node the body allocated (paper §4.5: "all
	// allocations are buffered such that they can be rolled back").
	// Rollbacks run newest-first. The entry is a value, not a closure, so
	// registering one allocates nothing; *arena.Arena is a Releaser.
	OnAbort(rel ebr.Releaser, shard int, idx uint64)

	// OnCommit registers f to run immediately after this attempt
	// commits. Dropped if the attempt aborts.
	OnCommit(f func())

	// Free registers an "eventual free" of slot idx: if the transaction
	// commits, rel.Release(shard, idx) runs only after a grace period in
	// which no concurrent transaction can still observe the freed node
	// (epoch-based reclamation, paper §4.5). If the attempt aborts the
	// retire is revoked and the release never runs. Like OnAbort, the
	// entry is a value and registering it allocates nothing.
	Free(rel ebr.Releaser, shard int, idx uint64)

	// Cancel voluntarily aborts the whole transaction (all attempts).
	// The enclosing Atomic/ReadOnly returns false and the transaction
	// has no effect. Cancel does not return.
	Cancel()
}

// Thread is a per-worker handle. Threads are not safe for concurrent use;
// each goroutine registers its own.
type Thread interface {
	// Atomic runs fn as an update transaction, retrying on conflicts
	// until it commits. It reports false only if the body called Cancel
	// or the system's MaxAttempts bound was exceeded (the transaction
	// then has no effect).
	Atomic(fn func(Txn)) bool

	// ReadOnly runs fn as a read-only transaction. Read-only
	// transactions never take locks at commit time and, in Multiverse,
	// may transition to the versioned code path.
	ReadOnly(fn func(Txn)) bool

	// Unregister releases the thread's slot (announcement array entry,
	// EBR handle). The Thread must not be used afterwards.
	Unregister()
}

// SnapshotThread is implemented by TM threads that can serve read-only
// transactions pinned at a caller-chosen timestamp of the TM's global
// clock. It is the per-instance primitive behind 2PC-free cross-instance
// snapshot reads (internal/shard): when several TM instances share one
// clock, a single clock increment yields a timestamp ts such that every
// instance's SnapshotAt(ts, ...) observes exactly the transactions that
// serialized before the increment.
//
// Contract: SnapshotAt runs fn as a read-only transaction that observes a
// write iff its commit timestamp is strictly below ts. It makes a bounded
// number of attempts and reports false if the snapshot at ts cannot be
// served (the state as of ts has been overwritten in place, or the body
// cancelled); the caller re-freezes a newer ts and retries. Unlike
// ReadOnly, SnapshotAt never blocks indefinitely on conflicts.
type SnapshotThread interface {
	Thread
	SnapshotAt(ts uint64, fn func(Txn)) bool
}

// System is a TM instance.
type System interface {
	// Register allocates a Thread handle for the calling goroutine.
	Register() Thread
	// Name identifies the TM ("multiverse", "tl2", "dctl", "norec",
	// "tinystm").
	Name() string
	// Stats returns a snapshot of aggregated counters.
	Stats() Stats
	// Close stops background machinery (Multiverse's mode/unversioning
	// thread). The System must not be used afterwards.
	Close()
}

// Stats aggregates per-thread counters. All fields are monotonically
// increasing totals since the System was created.
type Stats struct {
	Commits          uint64 // committed transactions
	Aborts           uint64 // aborted attempts
	Starved          uint64 // transactions that hit MaxAttempts and gave up
	ReadOnlyCommits  uint64 // commits of read-only transactions
	VersionedCommits uint64 // commits on the versioned code path (Multiverse)
	VersionListReads uint64 // Mode U versioned reads that had to consult a version list (Multiverse)
	ModeSwitches     uint64 // global TM mode transitions (Multiverse)
	Unversionings    uint64 // VLT buckets unversioned (Multiverse)
	AddrVersioned    uint64 // addresses switched to versioned state (Multiverse)
	Irrevocable      uint64 // irrevocable-path commits (DCTL)

	// AbortReasons breaks Aborts down by obs.AbortReason (index by the
	// reason value). Entries sum to Aborts; unclassified abort sites land
	// in the obs.ReasonUnknown entry.
	AbortReasons [obs.NumAbortReasons]uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Starved += o.Starved
	s.ReadOnlyCommits += o.ReadOnlyCommits
	s.VersionedCommits += o.VersionedCommits
	s.VersionListReads += o.VersionListReads
	s.ModeSwitches += o.ModeSwitches
	s.Unversionings += o.Unversionings
	s.AddrVersioned += o.AddrVersioned
	s.Irrevocable += o.Irrevocable
	for i := range s.AbortReasons {
		s.AbortReasons[i] += o.AbortReasons[i]
	}
}

// Sub removes o from s (windowed deltas: Stats are monotone totals).
func (s *Stats) Sub(o Stats) {
	s.Commits -= o.Commits
	s.Aborts -= o.Aborts
	s.Starved -= o.Starved
	s.ReadOnlyCommits -= o.ReadOnlyCommits
	s.VersionedCommits -= o.VersionedCommits
	s.VersionListReads -= o.VersionListReads
	s.ModeSwitches -= o.ModeSwitches
	s.Unversionings -= o.Unversionings
	s.AddrVersioned -= o.AddrVersioned
	s.Irrevocable -= o.Irrevocable
	for i := range s.AbortReasons {
		s.AbortReasons[i] -= o.AbortReasons[i]
	}
}

type abortSignal struct{}
type cancelSignal struct{}

// AbortAttempt unwinds the current transaction attempt. TM implementations
// call it on conflict; it is the Go analogue of the paper's longjmp back to
// beginTxn. It does not return.
func AbortAttempt() { panic(abortSignal{}) }

// CancelTxn unwinds the current transaction permanently (voluntary abort).
// It does not return.
func CancelTxn() { panic(cancelSignal{}) }

// Outcome of a single transaction attempt.
type Outcome int

const (
	// Committed: the body and commit protocol completed.
	Committed Outcome = iota
	// Conflicted: the attempt aborted and should be retried.
	Conflicted
	// Cancelled: the body voluntarily aborted; do not retry.
	Cancelled
)

// UnwindOutcome classifies a recovered panic value: the abort and cancel
// sentinels map to Conflicted and Cancelled; anything else (a genuine
// panic, or a caller's own control-flow sentinel) reports ok=false and
// should be re-panicked. It lets layered runners (internal/shard's probe)
// fold their own unwind handling and RunAttempt's into a single
// defer/recover, paying one panic traversal instead of a re-panic chain.
func UnwindOutcome(r any) (oc Outcome, ok bool) {
	switch r {
	case any(abortSignal{}):
		return Conflicted, true
	case any(cancelSignal{}):
		return Cancelled, true
	}
	return Committed, false
}

// RunAttempt executes one attempt: body followed by commit, converting
// AbortAttempt/CancelTxn unwinds into outcomes. It is Drive's unwind; backend
// tests also use it to run a single hand-built attempt.
func RunAttempt(attempt func()) (oc Outcome) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if oc, ok = UnwindOutcome(r); !ok {
				panic(r)
			}
		}
	}()
	attempt()
	return Committed
}

// Mix64 is a 64-bit finalizer (splitmix64) used to map Word addresses to
// lock/VLT/bloom table indices. Identical mapping across the three parallel
// tables is what lets a single versioned lock protect both its addresses and
// their version lists (paper §3.1).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
