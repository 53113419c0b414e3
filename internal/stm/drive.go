package stm

import (
	"runtime"
	"sync/atomic"

	"repro/internal/ebr"
	"repro/internal/obs"
)

// This file is everything that happens *around* a backend's concurrency
// control: the retry loop (Drive) and the per-system / per-thread scaffold
// the loop runs on (SysBase, ThreadBase). The paper's comparison is only
// meaningful when all five TMs share this code — same begin/abort/commit
// skeleton, same backoff, same accounting — so a backend supplies a Protocol
// and nothing else.

// Protocol is a backend's transaction type as the driver sees it: the Txn
// handed to bodies plus the four protocol steps of one attempt. Backends
// satisfy it by embedding Hooks (which also supplies the no-op After) and
// defining Begin, Read, Write, Commit and Rollback.
type Protocol interface {
	Txn
	// Begin prepares attempt n (1-based) of the transaction the thread's
	// entry point (Atomic, ReadOnly, SnapshotAt) set up: clear the read and
	// write sets, sample or pin the read clock, choose the attempt's code
	// path (mvstm: versioned or not; dctl: irrevocable or not).
	Begin(attempt int)
	// Commit runs the commit protocol after the body returned. It may
	// AbortWith; once it returns the transaction is committed and holds no
	// locks.
	Commit()
	// Rollback undoes a failed attempt's protocol state: restore in-place
	// writes, release locks. The driver runs the body's OnAbort hooks
	// right after it.
	Rollback()
	// After is the backend's reaction to a finished attempt, whatever its
	// outcome: it runs once the attempt is committed or rolled back, before
	// the body's OnCommit hooks.
	After(attempt int, oc Outcome)

	hooks() *Hooks
}

// ObsConfig is the flight-recorder wiring every backend's Config embeds.
type ObsConfig struct {
	// Obs, when non-nil, receives abort events with reasons in the flight
	// recorder; per-reason counters in Counters are kept regardless.
	Obs *obs.Recorder
	// ObsID tags this instance's events and attempt spans (the shard index
	// when the TM sits behind internal/shard).
	ObsID int
}

// SysBase is the System half of the scaffold: the reclamation domain, the
// counter registry behind Stats, and the allocator of lock-owner ids.
// Backends embed it, which also gives them Stats and Close.
type SysBase struct {
	EBR *ebr.Domain
	Reg Registry

	tids atomic.Uint64
	obs  ObsConfig
}

// Init readies the scaffold; call it once from the backend's constructor.
func (s *SysBase) Init(oc ObsConfig) {
	s.EBR = ebr.NewDomain()
	s.obs = oc
}

// Stats implements System.
func (s *SysBase) Stats() Stats { return s.Reg.Aggregate() }

// Close implements System.
func (s *SysBase) Close() { s.EBR.Drain() }

// maxTID is the largest owner id vlock's 14-bit tid field holds; 0 is
// reserved for "unowned".
const maxTID = 1<<14 - 1

// Attach registers t as a new thread of the system running transactions of
// type p: it joins the reclamation domain, adds its counters to Stats and
// takes the next owner id (ids wrap after maxTID registrations, so they are
// unique only among maxTID consecutive threads — as before).
func (s *SysBase) Attach(t *ThreadBase, p Protocol) {
	t.TID = int((s.tids.Add(1)-1)%maxTID) + 1
	t.EBR = s.EBR.Register()
	t.proto, t.txn, t.hooks = p, p, p.hooks()
	t.rec, t.src = s.obs.Obs, uint64(s.obs.ObsID)
	s.Reg.Add(&t.Ctr)
}

// ThreadBase is the Thread half of the scaffold. Backends embed it in their
// thread type, which gives them SetTrace and Unregister.
type ThreadBase struct {
	TID int // lock-owner id in 1..maxTID
	EBR *ebr.Handle
	Ctr Counters

	proto Protocol
	txn   Txn // proto as the body sees it; converted once, not per attempt
	hooks *Hooks
	rec   *obs.Recorder
	src   uint64
}

// SetTrace implements TraceSetter: it plants a tracing context on the
// thread's transaction so Drive emits per-attempt spans.
func (t *ThreadBase) SetTrace(tr *obs.Tracer, id uint64) { t.hooks.SetTrace(tr, id) }

// Unregister implements Thread.
func (t *ThreadBase) Unregister() { t.EBR.Unregister() }

// Policy is how one entry point retries. Call sites pass constants; nothing
// here is user-configurable beyond the backends' existing MaxAttempts.
type Policy struct {
	// MaxAttempts bounds the attempts; the transaction that exhausts it
	// counts as Starved and reports false. 0 means unbounded.
	MaxAttempts int
	// Backoff enables the linear backoff between attempts.
	Backoff bool
}

// Drive runs fn as one transaction on t: attempt after attempt until one
// commits, the body cancels, or pol's bound is hit. It owns everything that
// is the same for every backend — the attempt counter, the EBR pin, the
// unwind, attempt spans, hook execution, the commit/abort/starvation
// counters and abort events — so that accounting cannot drift between TMs.
func Drive(t *ThreadBase, fn func(Txn), readOnly bool, pol Policy) bool {
	p, h := t.proto, t.hooks
	for n := 1; ; n++ {
		h.Reset()
		p.Begin(n)
		h.TraceBegin()
		t.EBR.Pin()
		oc := RunAttempt(func() {
			fn(t.txn)
			p.Commit()
		})
		t.EBR.Unpin()
		if oc == Committed {
			h.TraceAttempt(t.src, n, 0)
			p.After(n, oc)
			h.RunCommit(t.EBR.Retire)
			t.Ctr.Commits.Add(1)
			if readOnly {
				t.Ctr.ReadOnlyCommits.Add(1)
			}
			return true
		}
		reason := h.reason // RunAbort resets it with the rest of the attempt
		h.TraceAttempt(t.src, n, uint64(reason)+1)
		p.Rollback()
		h.RunAbort()
		p.After(n, oc)
		if oc == Cancelled {
			return false
		}
		t.Ctr.Aborts.Add(1)
		t.Ctr.AbortReasons[reason].Add(1)
		t.rec.Record(obs.EvAbort, t.src, uint64(reason), uint64(n))
		if pol.MaxAttempts > 0 && n >= pol.MaxAttempts {
			t.Ctr.Starved.Add(1)
			return false
		}
		if pol.Backoff {
			backoff(n)
		}
	}
}

// backoff is the linear backoff Multiverse and DCTL use after an abort
// (paper §5: "For both Multiverse and DCTL we use the same linear backoff as
// in [30]"). On an oversubscribed machine a pure spin would starve the lock
// holder, so each unit yields the processor.
func backoff(attempt int) {
	n := attempt
	if n > 32 {
		n = 32
	}
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}
