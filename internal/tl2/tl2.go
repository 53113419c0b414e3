// Package tl2 implements Transactional Locking II (Dice, Shalev, Shavit,
// DISC 2006), the classic opaque unversioned STM the paper compares against:
// commit-time locking, buffered (redo-log) writes, a GV4 global clock, and
// per-address versioned locks in an external lock table.
package tl2

import (
	"repro/internal/gclock"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/vlock"
)

// Config tunes a TL2 instance.
type Config struct {
	// LockTableSize is the number of versioned locks (rounded up to a
	// power of two). Default 1<<20.
	LockTableSize int
	// MaxAttempts bounds retries per transaction; 0 means unlimited.
	// The paper notes baselines "reach their maximum allowed aborts and
	// quit" on long range queries.
	MaxAttempts int
	// Clock, when non-nil, is an externally owned GV4 clock shared with
	// other TM instances (internal/shard). The owner must have
	// initialized it to a non-zero value. nil gives a private clock.
	Clock *gclock.Clock
	// OnCommit, when non-nil, observes every committed update transaction
	// with a non-empty redo buffer at its commit linearization point
	// (after validation and write-back, before the write locks release at
	// wv). See stm.CommitObserver.
	OnCommit stm.CommitObserver
	stm.ObsConfig
}

func (c *Config) fill() {
	if c.LockTableSize == 0 {
		c.LockTableSize = 1 << 20
	}
}

// System is a TL2 STM instance.
type System struct {
	stm.SysBase
	cfg   Config
	clock *gclock.Clock
	locks *vlock.Table
}

// New creates a TL2 instance.
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
func (s *System) Name() string { return "tl2" }

// Register implements stm.System.
func (s *System) Register() stm.Thread {
	t := &thread{sys: s}
	t.txn.t = t
	s.Attach(&t.ThreadBase, &t.txn)
	return t
}

type writeEntry struct {
	w *stm.Word
	v uint64
}

type thread struct {
	stm.ThreadBase
	sys *System
	txn txn
}

type txn struct {
	stm.Hooks
	t        *thread
	rv       uint64
	readOnly bool
	pinTs    uint64 // SnapshotAt's timestamp; 0 reads at the live clock
	reads    []*vlock.Lock
	writes   []writeEntry
	locked   []*vlock.Lock
}

// Atomic implements stm.Thread.
func (t *thread) Atomic(fn func(stm.Txn)) bool { return t.run(fn, false, 0) }

// ReadOnly implements stm.Thread.
func (t *thread) ReadOnly(fn func(stm.Txn)) bool { return t.run(fn, true, 0) }

// snapshotAttempts bounds SnapshotAt retries: with no version lists to fall
// back on, an address written at or above the pinned rv can never validate
// again, so only transient lock-held races are worth riding out.
const snapshotAttempts = 3

// SnapshotAt implements stm.SnapshotThread: a read-only transaction with
// its read version pinned at ts-1, observing exactly the writes whose GV4
// commit version is strictly below ts. TL2 keeps no versions, so unlike
// Multiverse the snapshot is only servable while no address the body reads
// has been overwritten at or above ts — under sustained update load
// SnapshotAt starves exactly the way the paper describes TL2 starving on
// long range queries.
func (t *thread) SnapshotAt(ts uint64, fn func(stm.Txn)) bool { return t.run(fn, true, ts) }

func (t *thread) run(fn func(stm.Txn), readOnly bool, pinTs uint64) bool {
	t.txn.readOnly, t.txn.pinTs = readOnly, pinTs
	pol := stm.Policy{MaxAttempts: t.sys.cfg.MaxAttempts}
	if pinTs != 0 {
		pol = stm.Policy{MaxAttempts: snapshotAttempts, Backoff: true}
	}
	return stm.Drive(&t.ThreadBase, fn, readOnly, pol)
}

// Begin implements stm.Protocol.
func (tx *txn) Begin(int) {
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.locked = tx.locked[:0]
	tx.rv = tx.t.sys.clock.Load()
	if tx.pinTs != 0 {
		tx.rv = tx.pinTs - 1 // pin: Read validates version <= rv, i.e. < ts
	}
}

// Rollback implements stm.Protocol: it releases any commit-time locks,
// restoring their pre-lock version.
func (tx *txn) Rollback() {
	for _, l := range tx.locked {
		l.Release(l.Load().Version())
	}
	tx.locked = tx.locked[:0]
}

// Read implements stm.Txn. TL2 read protocol: consult the redo log, then
// sample the lock, read the value, and re-sample to detect racing writers.
func (tx *txn) Read(w *stm.Word) uint64 {
	if !tx.readOnly {
		for i := len(tx.writes) - 1; i >= 0; i-- {
			if tx.writes[i].w == w {
				return tx.writes[i].v
			}
		}
	}
	l := tx.t.sys.locks.Of(w)
	s1 := l.Load()
	if s1.Held() {
		tx.AbortWith(obs.ReasonLockBusy)
	}
	if s1.Version() > tx.rv {
		tx.AbortWith(obs.ReasonValidation)
	}
	v := w.Load()
	if l.Load() != s1 {
		tx.AbortWith(obs.ReasonValidation)
	}
	// Read-only TL2 transactions need no read set: per-read validation
	// against rv suffices and commit is a no-op.
	if !tx.readOnly {
		tx.reads = append(tx.reads, l)
	}
	return v
}

// Write implements stm.Txn: TL2 buffers writes until commit.
func (tx *txn) Write(w *stm.Word, v uint64) {
	if tx.readOnly {
		panic("tl2: Write inside ReadOnly transaction")
	}
	tx.writes = append(tx.writes, writeEntry{w, v})
}

// Commit implements stm.Protocol.
func (tx *txn) Commit() {
	if tx.readOnly || len(tx.writes) == 0 {
		return
	}
	t := tx.t
	sys := t.sys
	// Commit-time locking of the write set; busy locks abort (bounded
	// spinning degenerates to abort under oversubscription anyway).
	for _, e := range tx.writes {
		l := sys.locks.Of(e.w)
		if tx.owns(l) {
			continue
		}
		s := l.Load()
		if s.Held() {
			tx.AbortWith(obs.ReasonLockBusy)
		}
		if s.Version() > tx.rv {
			tx.AbortWith(obs.ReasonValidation)
		}
		if !l.CompareAndSwap(s, vlock.Pack(true, false, t.TID, s.Version())) {
			tx.AbortWith(obs.ReasonLockBusy)
		}
		tx.locked = append(tx.locked, l)
	}
	wv, won := sys.clock.TickGV4()
	// GV4 special case: if this thread's own CAS took the clock from rv to
	// rv+1, no commit interleaved and the read set is trivially still
	// valid. A pass-on-failure tick proves nothing: the winner it adopted
	// wv from committed concurrently.
	if !won || wv != tx.rv+1 {
		for _, l := range tx.reads {
			s := l.Load()
			if s.Held() && !tx.owns(l) {
				tx.AbortWith(obs.ReasonLockBusy)
			}
			if s.Version() > tx.rv {
				tx.AbortWith(obs.ReasonValidation)
			}
		}
	}
	for _, e := range tx.writes {
		e.w.Store(e.v)
	}
	// Commit observation (durability seam): validation passed, the redo
	// values are in place, and the write locks are still held, so nothing
	// can abort this commit and no conflicting commit can observe first.
	if co := sys.cfg.OnCommit; co != nil {
		if redo := tx.Redo(); len(redo) > 0 {
			co.ObserveCommit(wv, tx.TraceID(), redo)
		}
	}
	for _, l := range tx.locked {
		l.Release(wv)
	}
	tx.locked = tx.locked[:0]
}

func (tx *txn) owns(l *vlock.Lock) bool {
	for _, x := range tx.locked {
		if x == l {
			return true
		}
	}
	return false
}
