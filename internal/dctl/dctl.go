// Package dctl implements Deferred Clock Transactional Locking (Ramalhete &
// Correia, PPoPP 2024), the fastest unversioned STM at the time of the paper
// and the baseline Multiverse's unversioned path is modelled on:
// encounter-time locking and in-place writes with an undo log, a global
// clock that is incremented only on aborts, and a starvation-free mode in
// which a single transaction at a time becomes irrevocable after a bounded
// number of aborts, claiming locks even on reads.
package dctl

import (
	"runtime"

	"repro/internal/gclock"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/vlock"
)

// Config tunes a DCTL instance.
type Config struct {
	// LockTableSize is the number of versioned locks (rounded up to a
	// power of two). Default 1<<20.
	LockTableSize int
	// IrrevocableAfter is the abort count after which a transaction
	// falls back to the irrevocable starvation-free path. The paper's
	// evaluation uses 100. Default 100.
	IrrevocableAfter int
	// Clock, when non-nil, is an externally owned deferred clock shared
	// with other TM instances (internal/shard). The owner must have
	// initialized it to a non-zero value. nil gives a private clock.
	Clock *gclock.Clock
	// OnCommit, when non-nil, observes every committed update transaction
	// with a non-empty redo buffer at its commit linearization point
	// (after read-set validation, before the write locks release at the
	// commit clock). See stm.CommitObserver.
	OnCommit stm.CommitObserver
	stm.ObsConfig
}

func (c *Config) fill() {
	if c.LockTableSize == 0 {
		c.LockTableSize = 1 << 20
	}
	if c.IrrevocableAfter == 0 {
		c.IrrevocableAfter = 100
	}
}

// System is a DCTL instance.
type System struct {
	stm.SysBase
	cfg   Config
	clock *gclock.Clock
	locks *vlock.Table
	irrev stm.Word // 1 while an irrevocable transaction is running
	_     [48]byte
}

// New creates a DCTL instance.
func New(cfg Config) *System {
	cfg.fill()
	s := &System{cfg: cfg, locks: vlock.NewTable(cfg.LockTableSize)}
	s.Init(cfg.ObsConfig)
	if cfg.Clock != nil {
		s.clock = cfg.Clock // shared; never reset (siblings may have advanced it)
	} else {
		s.clock = new(gclock.Clock)
		s.clock.Set(1)
	}
	return s
}

// Name implements stm.System.
func (s *System) Name() string { return "dctl" }

// Register implements stm.System.
func (s *System) Register() stm.Thread {
	t := &thread{sys: s}
	t.txn.t = t
	s.Attach(&t.ThreadBase, &t.txn)
	return t
}

type thread struct {
	stm.ThreadBase
	sys *System
	txn txn
}

type undoEntry struct {
	w   *stm.Word
	old uint64
}

type txn struct {
	stm.Hooks
	t           *thread
	rClock      uint64
	readOnly    bool
	irrevocable bool
	pinTs       uint64 // SnapshotAt's timestamp; 0 reads at the live clock
	reads       []*vlock.Lock
	undo        []undoEntry
	locked      []*vlock.Lock
}

// Atomic implements stm.Thread.
func (t *thread) Atomic(fn func(stm.Txn)) bool { return t.run(fn, false, 0) }

// ReadOnly implements stm.Thread.
func (t *thread) ReadOnly(fn func(stm.Txn)) bool { return t.run(fn, true, 0) }

// snapshotAttempts bounds SnapshotAt retries; see the tl2 analogue — DCTL
// also keeps no versions, so pinned-clock aborts are usually permanent.
const snapshotAttempts = 3

// SnapshotAt implements stm.SnapshotThread: a read-only transaction with
// its read clock pinned at ts, observing exactly the writes whose commit
// clock is strictly below ts (validate requires version < rClock). DCTL
// keeps no versions, so the snapshot starves once any address the body
// reads has been overwritten at or above ts; unlike Atomic/ReadOnly there
// is no irrevocable fallback — irrevocability cannot serve a read in the
// past — so SnapshotAt reports false instead.
func (t *thread) SnapshotAt(ts uint64, fn func(stm.Txn)) bool { return t.run(fn, true, ts) }

func (t *thread) run(fn func(stm.Txn), readOnly bool, pinTs uint64) bool {
	t.txn.readOnly, t.txn.pinTs = readOnly, pinTs
	pol := stm.Policy{Backoff: true} // unbounded: Begin goes irrevocable instead
	if pinTs != 0 {
		pol.MaxAttempts = snapshotAttempts
	}
	return stm.Drive(&t.ThreadBase, fn, readOnly, pol)
}

// Begin implements stm.Protocol. Past IrrevocableAfter failed attempts the
// transaction takes the starvation-free path: at most one irrevocable
// transaction runs at a time (spin-acquired flag, released by After); it
// claims locks on reads as well as writes and waits for busy locks instead
// of aborting, so it cannot be aborted by concurrent transactions.
func (tx *txn) Begin(attempt int) {
	sys := tx.t.sys
	tx.irrevocable = tx.pinTs == 0 && attempt > sys.cfg.IrrevocableAfter
	if tx.irrevocable {
		for !sys.irrev.CompareAndSwap(0, 1) {
			runtime.Gosched()
		}
	}
	tx.reads = tx.reads[:0]
	tx.undo = tx.undo[:0]
	tx.locked = tx.locked[:0]
	tx.rClock = sys.clock.Load()
	if tx.pinTs != 0 {
		tx.rClock = tx.pinTs
	}
}

// After implements stm.Protocol: an irrevocable attempt hands the flag back.
func (tx *txn) After(_ int, oc stm.Outcome) {
	if !tx.irrevocable {
		return
	}
	tx.t.sys.irrev.Store(0)
	switch oc {
	case stm.Committed:
		tx.t.Ctr.Irrevocable.Add(1)
	case stm.Conflicted:
		// Irrevocable reads and writes never signal conflicts.
		panic("dctl: irrevocable transaction aborted")
	}
}

// Rollback implements stm.Protocol: it restores in-place writes and releases
// write locks with a freshly incremented clock (paper Listing 1 abort:
// nextClock = gClock.increment(); writeSet.unlock(nextClock)). This is the
// only place DCTL's clock advances.
func (tx *txn) Rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i].w.Store(tx.undo[i].old)
	}
	tx.undo = tx.undo[:0]
	// The clock advances on every abort — DCTL's deferred clock. Without
	// this a reader conflicting on version == rClock would retry with
	// the same read clock forever.
	next := tx.t.sys.clock.Increment()
	for _, l := range tx.locked {
		l.Release(next)
	}
	tx.locked = tx.locked[:0]
}

func (tx *txn) validate(s vlock.State) bool {
	if s.Held() && s.TID() == tx.t.TID {
		return true
	}
	if s.Held() {
		return false
	}
	return s.Version() < tx.rClock
}

// acquire spins until it owns l (irrevocable path only).
func (tx *txn) acquire(l *vlock.Lock) {
	for {
		if s := l.Load(); !s.Held() {
			if l.CompareAndSwap(s, vlock.Pack(true, false, tx.t.TID, s.Version())) {
				tx.locked = append(tx.locked, l)
				return
			}
		} else if s.TID() == tx.t.TID {
			return
		}
		runtime.Gosched()
	}
}

// Read implements stm.Txn.
func (tx *txn) Read(w *stm.Word) uint64 {
	l := tx.t.sys.locks.Of(w)
	if tx.irrevocable {
		tx.acquire(l)
		return w.Load()
	}
	v := w.Load()
	if s := l.Load(); !tx.validate(s) {
		tx.AbortWith(s.AbortReason())
	}
	// Read-only transactions skip the read set: per-read validation
	// suffices and tryCommit returns immediately for them (Listing 1
	// line 15). This is exactly what permits the §4.5 reclamation race.
	if !tx.readOnly {
		tx.reads = append(tx.reads, l)
	}
	return v
}

// Write implements stm.Txn: encounter-time locking and writing.
func (tx *txn) Write(w *stm.Word, v uint64) {
	if tx.readOnly {
		panic("dctl: Write inside ReadOnly transaction")
	}
	l := tx.t.sys.locks.Of(w)
	if tx.irrevocable {
		tx.acquire(l)
		tx.undo = append(tx.undo, undoEntry{w, w.Load()})
		w.Store(v)
		return
	}
	s := l.Load()
	if s.Held() && s.TID() == tx.t.TID {
		tx.undo = append(tx.undo, undoEntry{w, w.Load()})
		w.Store(v)
		return
	}
	if s.Held() {
		tx.AbortWith(obs.ReasonLockBusy)
	}
	if s.Version() >= tx.rClock {
		tx.AbortWith(obs.ReasonValidation)
	}
	if !l.CompareAndSwap(s, vlock.Pack(true, false, tx.t.TID, s.Version())) {
		tx.AbortWith(obs.ReasonLockBusy)
	}
	tx.locked = append(tx.locked, l)
	tx.undo = append(tx.undo, undoEntry{w, w.Load()})
	w.Store(v)
}

// Commit implements stm.Protocol.
func (tx *txn) Commit() {
	if tx.readOnly && !tx.irrevocable {
		return
	}
	if !tx.irrevocable {
		for _, l := range tx.reads {
			if s := l.Load(); !tx.validate(s) {
				tx.AbortWith(s.AbortReason())
			}
		}
	}
	// Irrevocable transactions lock even their reads, so a read-only
	// irrevocable commit still has locks to release below.
	if len(tx.locked) == 0 {
		tx.undo = tx.undo[:0]
		return
	}
	commitClock := tx.t.sys.clock.Load()
	// Commit observation (durability seam): past validation (or on the
	// irrevocable path, which cannot abort), at the commit clock, still
	// under the write locks.
	if co := tx.t.sys.cfg.OnCommit; co != nil {
		if redo := tx.Redo(); len(redo) > 0 {
			co.ObserveCommit(commitClock, tx.TraceID(), redo)
		}
	}
	for _, l := range tx.locked {
		l.Release(commitClock)
	}
	tx.locked = tx.locked[:0]
	tx.undo = tx.undo[:0]
}
