// Package norec implements NOrec (Dalessandro, Spear, Scott, PPoPP 2010):
// an opaque unversioned STM with no ownership records. A single global
// sequence lock orders writers; readers validate by value, re-reading their
// entire read set whenever the global clock moves.
package norec

import (
	"runtime"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/stm"
)

// Config tunes a NOrec instance.
type Config struct {
	// MaxAttempts bounds retries per transaction; 0 means unlimited.
	MaxAttempts int
	stm.ObsConfig
}

// System is a NOrec STM instance.
type System struct {
	stm.SysBase
	cfg Config
	seq atomic.Uint64 // global sequence lock; odd = writer committing
}

// New creates a NOrec instance.
func New(cfg Config) *System {
	s := &System{cfg: cfg}
	s.Init(cfg.ObsConfig)
	return s
}

// Name implements stm.System.
func (s *System) Name() string { return "norec" }

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
	w *stm.Word
	v uint64
}

type writeEntry struct {
	w *stm.Word
	v uint64
}

type txn struct {
	stm.Hooks
	t        *thread
	snapshot uint64
	readOnly bool
	reads    []readEntry
	writes   []writeEntry
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
	tx.writes = tx.writes[:0]
	// Wait for any in-flight writer, then record the even snapshot.
	for {
		s := tx.t.sys.seq.Load()
		if s&1 == 0 {
			tx.snapshot = s
			return
		}
		runtime.Gosched()
	}
}

// Rollback implements stm.Protocol. Writes are buffered and NOrec holds no
// locks outside Commit's write-back, so a failed attempt has nothing to undo.
func (tx *txn) Rollback() {}

// validate re-reads the whole read set by value. On success it returns a new
// consistent (even) snapshot; on any changed value it aborts.
func (tx *txn) validate() uint64 {
	for {
		s := tx.t.sys.seq.Load()
		if s&1 != 0 {
			runtime.Gosched()
			continue
		}
		for _, e := range tx.reads {
			if e.w.Load() != e.v {
				tx.AbortWith(obs.ReasonValidation)
			}
		}
		if tx.t.sys.seq.Load() == s {
			return s
		}
	}
}

// Read implements stm.Txn.
func (tx *txn) Read(w *stm.Word) uint64 {
	if !tx.readOnly {
		for i := len(tx.writes) - 1; i >= 0; i-- {
			if tx.writes[i].w == w {
				return tx.writes[i].v
			}
		}
	}
	v := w.Load()
	for tx.t.sys.seq.Load() != tx.snapshot {
		tx.snapshot = tx.validate()
		v = w.Load()
	}
	tx.reads = append(tx.reads, readEntry{w, v})
	return v
}

// Write implements stm.Txn: buffered until commit.
func (tx *txn) Write(w *stm.Word, v uint64) {
	if tx.readOnly {
		panic("norec: Write inside ReadOnly transaction")
	}
	tx.writes = append(tx.writes, writeEntry{w, v})
}

// Commit implements stm.Protocol.
func (tx *txn) Commit() {
	if tx.readOnly || len(tx.writes) == 0 {
		return
	}
	sys := tx.t.sys
	for !sys.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		tx.snapshot = tx.validate()
	}
	for _, e := range tx.writes {
		e.w.Store(e.v)
	}
	sys.seq.Store(tx.snapshot + 2)
}
