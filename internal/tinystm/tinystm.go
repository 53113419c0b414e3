// Package tinystm implements TinySTM (Felber, Fetzer, Riegel, PPoPP 2008)
// in its write-through configuration: an opaque unversioned STM with a
// global clock, per-address versioned locks, encounter-time locking with an
// undo log, and timestamp extension (a transaction whose read hits a version
// newer than its snapshot revalidates its read set and, if intact, slides
// its snapshot forward instead of aborting).
package tinystm

import (
	"repro/internal/gclock"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/vlock"
)

// Config tunes a TinySTM instance.
type Config struct {
	// LockTableSize is the number of versioned locks (rounded up to a
	// power of two). Default 1<<20.
	LockTableSize int
	// MaxAttempts bounds retries per transaction; 0 means unlimited.
	MaxAttempts int
	stm.ObsConfig
}

func (c *Config) fill() {
	if c.LockTableSize == 0 {
		c.LockTableSize = 1 << 20
	}
}

// System is a TinySTM instance.
type System struct {
	stm.SysBase
	cfg   Config
	clock gclock.Clock
	locks *vlock.Table
}

// New creates a TinySTM instance.
func New(cfg Config) *System {
	cfg.fill()
	s := &System{cfg: cfg, locks: vlock.NewTable(cfg.LockTableSize)}
	s.Init(cfg.ObsConfig)
	s.clock.Set(1)
	return s
}

// Name implements stm.System.
func (s *System) Name() string { return "tinystm" }

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

type readEntry struct {
	l    *vlock.Lock
	seen uint64 // version observed at read time (for extension)
}

type undoEntry struct {
	w   *stm.Word
	old uint64
}

type txn struct {
	stm.Hooks
	t        *thread
	rv       uint64
	readOnly bool
	reads    []readEntry
	undo     []undoEntry
	locked   []*vlock.Lock
}

// Atomic implements stm.Thread.
func (t *thread) Atomic(fn func(stm.Txn)) bool { return t.run(fn, false) }

// ReadOnly implements stm.Thread.
func (t *thread) ReadOnly(fn func(stm.Txn)) bool { return t.run(fn, true) }

func (t *thread) run(fn func(stm.Txn), readOnly bool) bool {
	t.txn.readOnly = readOnly
	return stm.Drive(&t.ThreadBase, fn, readOnly, stm.Policy{MaxAttempts: t.sys.cfg.MaxAttempts})
}

// Begin implements stm.Protocol.
func (tx *txn) Begin(int) {
	tx.reads = tx.reads[:0]
	tx.undo = tx.undo[:0]
	tx.locked = tx.locked[:0]
	tx.rv = tx.t.sys.clock.Load()
}

// Rollback implements stm.Protocol: it restores in-place writes (newest
// first) and releases locks with a freshly incremented clock value.
// Releasing with the old version would be an ABA hazard: a reader that
// sampled the lock, then the dirty value, then the (restored) lock word again
// would validate an inconsistent read.
func (tx *txn) Rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i].w.Store(tx.undo[i].old)
	}
	tx.undo = tx.undo[:0]
	if len(tx.locked) > 0 {
		wv := tx.t.sys.clock.Increment()
		for _, l := range tx.locked {
			l.Release(wv)
		}
		tx.locked = tx.locked[:0]
	}
}

// revalidate checks that every read still sees the version it observed and
// no other transaction holds its lock. Aborts otherwise.
func (tx *txn) revalidate() {
	for _, e := range tx.reads {
		s := e.l.Load()
		if s.Locked() && s.TID() != tx.t.TID {
			tx.AbortWith(obs.ReasonLockBusy)
		}
		if s.Version() != e.seen {
			tx.AbortWith(obs.ReasonValidation)
		}
	}
}

// extend revalidates the read set against the current clock and, if every
// observed version is unchanged, slides the snapshot forward (TinySTM's
// timestamp extension). Aborts otherwise.
func (tx *txn) extend() {
	now := tx.t.sys.clock.Load()
	tx.revalidate()
	tx.rv = now
}

// Read implements stm.Txn. Write-through: in-place values are current, so a
// self-owned lock means the value can be returned directly.
func (tx *txn) Read(w *stm.Word) uint64 {
	l := tx.t.sys.locks.Of(w)
	for {
		s := l.Load()
		if s.Locked() {
			if s.TID() == tx.t.TID {
				return w.Load()
			}
			tx.AbortWith(obs.ReasonLockBusy)
		}
		v := w.Load()
		if l.Load() != s {
			continue // racing writer; resample
		}
		if s.Version() > tx.rv {
			tx.extend() // may abort
			continue
		}
		tx.reads = append(tx.reads, readEntry{l, s.Version()})
		return v
	}
}

// Write implements stm.Txn: encounter-time lock, undo log, write in place.
func (tx *txn) Write(w *stm.Word, v uint64) {
	if tx.readOnly {
		panic("tinystm: Write inside ReadOnly transaction")
	}
	l := tx.t.sys.locks.Of(w)
	s := l.Load()
	if s.Locked() && s.TID() == tx.t.TID {
		tx.undo = append(tx.undo, undoEntry{w, w.Load()})
		w.Store(v)
		return
	}
	if s.Held() || s.Version() > tx.rv {
		tx.AbortWith(s.AbortReason())
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
	if tx.readOnly || len(tx.locked) == 0 {
		return
	}
	wv := tx.t.sys.clock.Increment()
	if wv != tx.rv+1 {
		// Someone committed since our snapshot: revalidate.
		tx.revalidate()
	}
	for _, l := range tx.locked {
		l.Release(wv)
	}
	tx.locked = tx.locked[:0]
	tx.undo = tx.undo[:0]
}
