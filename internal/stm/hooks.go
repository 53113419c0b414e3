package stm

import (
	"sync/atomic"
	"time"

	"repro/internal/ebr"
	"repro/internal/obs"
)

// Hooks is the per-attempt side-effect buffer shared by every TM: abort
// rollbacks, commit actions and revocable eventual-frees (paper §4.5). TM
// transaction types embed Hooks to satisfy the corresponding Txn methods.
// Rollbacks and frees are ebr.Release values, so an attempt that allocates
// or frees a node buffers three words and no closure.
//
// Hooks also carries the transaction's tracing context: a caller that
// sampled the request (the server's worker loop) plants a tracer and trace
// id via SetTrace before running the transaction, and Drive emits one
// StageAttempt span per attempt through TraceBegin/TraceAttempt. The trace
// fields outlive Reset — they describe the whole transaction, not one
// attempt — and are cleared only by the next SetTrace.
//
// Embedding Hooks is also what makes a transaction type a Protocol: it
// carries the attempt's abort reason (AbortWith) and the default After.
type Hooks struct {
	aborts    []ebr.Release // run newest-first on abort
	commitFns []func()
	frees     []ebr.Release
	redo      []RedoRec
	reason    obs.AbortReason

	tracer    *obs.Tracer
	traceID   uint64
	attemptNs int64
}

// SetTrace plants (or, with id 0, clears) the transaction's tracing
// context. Callers set it before the transaction starts and clear it when
// the traced request is done, so a reused thread never leaks a trace id
// into the next request's transaction.
func (h *Hooks) SetTrace(tr *obs.Tracer, id uint64) {
	h.tracer = tr
	h.traceID = id
	h.attemptNs = 0
}

// TraceID returns the planted trace id (0 = untraced). TMs thread it into
// ObserveCommit so the WAL can stamp it into the redo record header.
func (h *Hooks) TraceID() uint64 { return h.traceID }

// TraceBegin stamps the attempt's start time. Drive calls it once per
// attempt, right after the protocol's Begin. No-op when untraced.
func (h *Hooks) TraceBegin() {
	if h.tracer == nil || h.traceID == 0 {
		return
	}
	h.attemptNs = time.Now().UnixNano()
}

// TraceAttempt closes the attempt opened by TraceBegin with one
// StageAttempt span: src identifies the TM instance (shard index), attempt
// is the 1-based retry ordinal, and reason is 0 for a committed attempt or
// AbortReason+1 for an aborted one. No-op when untraced.
func (h *Hooks) TraceAttempt(src uint64, attempt int, reason uint64) {
	if h.tracer == nil || h.traceID == 0 || h.attemptNs == 0 {
		return
	}
	start := h.attemptNs
	h.attemptNs = 0
	h.tracer.Record(h.traceID, obs.StageAttempt, src,
		start, time.Now().UnixNano()-start, uint64(attempt), reason)
}

// TraceSetter is implemented by thread types whose transactions can carry a
// tracing context (all Hooks-embedding backends, plus internal/shard's
// routing wrapper, which forwards to every inner thread).
type TraceSetter interface {
	SetTrace(tr *obs.Tracer, id uint64)
}

// SetTrace plants a tracing context on th when its backend supports one,
// and is a no-op otherwise. The server's worker loop calls it with the
// sampled trace id before executing a request, then with (nil, 0) after.
func SetTrace(th Thread, tr *obs.Tracer, id uint64) {
	if ts, ok := th.(TraceSetter); ok {
		ts.SetTrace(tr, id)
	}
}

// OnAbort registers rel.Release(shard, idx) to run (in reverse registration
// order) if the attempt aborts.
func (h *Hooks) OnAbort(rel ebr.Releaser, shard int, idx uint64) {
	h.aborts = append(h.aborts, ebr.Release{Rel: rel, Shard: shard, Idx: idx})
}

// OnCommit registers f to run immediately after commit.
func (h *Hooks) OnCommit(f func()) { h.commitFns = append(h.commitFns, f) }

// Free registers a revocable eventual-free of slot idx.
func (h *Hooks) Free(rel ebr.Releaser, shard int, idx uint64) {
	h.frees = append(h.frees, ebr.Release{Rel: rel, Shard: shard, Idx: idx})
}

// AppendRedo implements RedoLogger: it buffers one logical redo record for
// the attempt. The buffer rides the attempt — cleared by Reset on retry,
// handed to the TM's CommitObserver (if configured) on commit.
func (h *Hooks) AppendRedo(r RedoRec) { h.redo = append(h.redo, r) }

// Redo returns the attempt's buffered redo records. The slice is reused
// across attempts; consumers must not retain it.
func (h *Hooks) Redo() []RedoRec { return h.redo }

// Cancel voluntarily aborts the transaction. It does not return.
func (h *Hooks) Cancel() { CancelTxn() }

// AbortWith tags the attempt's abort reason (for Counters.AbortReasons, the
// attempt span and the flight recorder) and unwinds. It does not return.
func (h *Hooks) AbortWith(r obs.AbortReason) {
	h.reason = r
	AbortAttempt()
}

// After is the Protocol default: no reaction to a finished attempt.
func (h *Hooks) After(int, Outcome) {}

func (h *Hooks) hooks() *Hooks { return h }

// Reset clears the buffers and the abort reason for a fresh attempt.
func (h *Hooks) Reset() {
	h.aborts = h.aborts[:0]
	h.commitFns = h.commitFns[:0]
	h.frees = h.frees[:0]
	h.redo = h.redo[:0]
	h.reason = obs.ReasonUnknown
}

// RunAbort executes the abort rollbacks (newest first) and drops everything
// else; the attempt's retires are thereby revoked.
func (h *Hooks) RunAbort() {
	for i := len(h.aborts) - 1; i >= 0; i-- {
		h.aborts[i].Run()
	}
	h.Reset()
}

// RunCommit executes commit actions and hands the eventual-frees to retire
// (typically ebr.Handle.Retire).
func (h *Hooks) RunCommit(retire func(ebr.Release)) {
	for _, f := range h.commitFns {
		f()
	}
	for _, r := range h.frees {
		retire(r)
	}
	h.Reset()
}

// Counters are per-thread statistic counters. The owning thread increments
// them; Stats() snapshots race-free via atomics.
type Counters struct {
	Commits          atomic.Uint64
	Aborts           atomic.Uint64
	Starved          atomic.Uint64
	ReadOnlyCommits  atomic.Uint64
	VersionedCommits atomic.Uint64
	VersionListReads atomic.Uint64
	ModeSwitches     atomic.Uint64
	Unversionings    atomic.Uint64
	AddrVersioned    atomic.Uint64
	Irrevocable      atomic.Uint64

	// AbortReasons breaks Aborts down by obs.AbortReason: Drive increments
	// the entry of the reason the attempt was aborted with (AbortWith)
	// alongside Aborts; unclassified aborts land in obs.ReasonUnknown.
	AbortReasons [obs.NumAbortReasons]atomic.Uint64
}

// Snapshot returns the current values.
func (c *Counters) Snapshot() Stats {
	s := Stats{
		Commits:          c.Commits.Load(),
		Aborts:           c.Aborts.Load(),
		Starved:          c.Starved.Load(),
		ReadOnlyCommits:  c.ReadOnlyCommits.Load(),
		VersionedCommits: c.VersionedCommits.Load(),
		VersionListReads: c.VersionListReads.Load(),
		ModeSwitches:     c.ModeSwitches.Load(),
		Unversionings:    c.Unversionings.Load(),
		AddrVersioned:    c.AddrVersioned.Load(),
		Irrevocable:      c.Irrevocable.Load(),
	}
	for i := range c.AbortReasons {
		s.AbortReasons[i] = c.AbortReasons[i].Load()
	}
	return s
}
