// Package shard composes N independent TM instances into one logical
// transactional system behind the existing ds.Map-shaped API, pushing past
// the scalability ceiling of a single instance's lock table and background
// machinery: keys hash-partition across shards, point operations route to a
// single shard and pay nothing extra, and cross-shard read-only queries
// (RangeTx/SizeTx/VisitTx) are answered consistently without cross-shard
// locks or two-phase commit by freezing one snapshot timestamp and running
// every shard's scan on its TM's versioned read path pinned at that
// timestamp.
//
// # Why the shards share one clock
//
// Each shard has its own lock table, version-list table, bloom table,
// announcement array, EBR domain and background thread — the structures
// whose cache-line traffic actually serializes a single instance. The one
// thing the shards share is the global clock, and that is what makes the
// snapshot protocol linearizable with a single atomic increment instead of
// a per-shard timestamp vector:
//
// With per-shard clocks, a frozen vector (ts_1 … ts_N) is only snapshot
// consistent, not linearizable. The freeze reads the clocks one at a time,
// so a writer W on an early-frozen shard can commit above its ts_i (and so
// be excluded) and complete before a writer X on a late-frozen shard even
// begins, commits below ts_j, and is included. Any linearization must place
// W before X (real time) but the query before W and after X — a cycle. No
// protocol over fully independent shards can rule this out, because nothing
// orders the per-shard freezes. Sharing the clock collapses the freeze to
// one increment: a transaction is excluded iff it loaded its commit
// timestamp after the increment, and included iff before, so the increment
// itself is the query's linearization point. The deferred-clock discipline
// (DCTL, Multiverse) makes the shared line cheap — begins and commits only
// load it; it is incremented on aborts and freezes.
//
// # The snapshot read protocol
//
//  1. Freeze: ts := clock.Increment(). Every transaction that completed
//     before this instant committed strictly below ts; every transaction
//     that begins committing after it commits at or above ts.
//  2. Scan: run each shard's part of the query as a read-only transaction
//     pinned at ts (stm.SnapshotThread.SnapshotAt) — on Multiverse this is
//     the paper's versioned read path, which versions the addresses it
//     touches, so old values stay servable under concurrent updates.
//  3. Retry: if any shard cannot serve ts any more (its state moved out
//     from under the freeze before versioning caught it), re-freeze a new
//     ts and rerun the whole query body; the previous attempt's versioning
//     side effects make the retry converge.
//
// Multiple cross-shard queries inside one ReadOnly body share one frozen
// ts, so e.g. a full RangeTx and a SizeTx in the same transaction always
// agree.
//
// The protocol is written once, in Thread.exec. A ReadOnly body reaches it
// by escalation; Thread.Snapshot is the declared entry point for readers
// that know up front they want the whole system at one timestamp (the WAL's
// checkpointer) and need that timestamp back.
//
// # Transaction routing
//
// A Thread is a fan-out handle over one registered thread per shard. Its
// Atomic/ReadOnly first run the body in a free "probe" state; the first
// routed operation decides the execution plan: a point operation binds the
// whole body to that key's shard (rerunning it inside that shard's native
// transaction), while a cross-shard query switches a read-only body to
// snapshot mode (each routed operation then runs as its own mini
// transaction pinned at the frozen ts, which composes into one consistent
// view). Update transactions must confine themselves to keys of a single
// shard — a cross-shard update panics, it does not silently lose atomicity.
// Bodies reach the shards through a shard.Map only: a raw stm.Word belongs
// to no shard (two words of one node would hash apart), so Txn.Read/Write
// on a shard transaction panic.
// This mirrors the phase-reconciliation split of Narula et al. (OSDI '14):
// serializable cross-partition work is reads-only; writes stay partition
// local and cross-partition flows are reconciled by the application (see
// examples/shardedbank).
package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ebr"
	"repro/internal/gclock"
	"repro/internal/obs"
	"repro/internal/stm"
)

// Backend constructs shard i's TM instance against the shared clock. The
// clock is initialized (non-zero) before any shard is built; backends must
// pass it through to their TM's Config and must not reset it.
type Backend func(shard int, clock *gclock.Clock) stm.System

// Config describes a sharded system.
type Config struct {
	// Shards is the number of TM instances (≥ 1).
	Shards int
	// Backend builds each instance. All instances should be the same TM
	// at the same tuning; nothing enforces it, but Stats and Name assume
	// homogeneity.
	Backend Backend
	// ClockStart, when non-zero, initializes the shared clock to this
	// value instead of 1. Recovery (internal/wal) restarts a system with
	// the clock above every persisted commit timestamp, so timestamps of
	// post-recovery commits extend — never collide with — the log's
	// existing timestamp order.
	ClockStart uint64
}

// System is a sharded TM: N backend instances over one shared clock. It
// implements stm.System; Register returns a fan-out *Thread.
type System struct {
	clock   *gclock.Clock
	shards  []stm.System
	name    string
	freezes atomic.Uint64 // shared-clock snapshot freezes, re-freezes included
}

// New builds the sharded system.
func New(cfg Config) *System {
	if cfg.Shards < 1 {
		panic("shard: Config.Shards must be >= 1")
	}
	if cfg.Backend == nil {
		panic("shard: Config.Backend is required")
	}
	s := &System{clock: new(gclock.Clock)}
	if cfg.ClockStart != 0 {
		s.clock.Set(cfg.ClockStart)
	} else {
		s.clock.Set(1)
	}
	s.shards = make([]stm.System, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = cfg.Backend(i, s.clock)
	}
	s.name = fmt.Sprintf("sharded-%s[%d]", s.shards[0].Name(), cfg.Shards)
	return s
}

// Name implements stm.System.
func (s *System) Name() string { return s.name }

// NumShards returns the shard count.
func (s *System) NumShards() int { return len(s.shards) }

// ShardOf returns the shard a key routes to. Exported so applications can
// co-locate keys that must share an update transaction (examples/shardedbank
// places each shard's settlement account by probing ShardOf).
func (s *System) ShardOf(key uint64) int { return Of(key, len(s.shards)) }

// Of is the routing rule itself: the shard key routes to in a system of n.
// The WAL's recovery asks it of streams written under another n.
func Of(key uint64, n int) int { return int(stm.Mix64(key) % uint64(n)) }

// ClockValue returns the current shared clock value (observability: the
// deferred clock advances only on aborts and snapshot freezes).
func (s *System) ClockValue() uint64 { return s.clock.Load() }

// freezeTs atomically increments the shared clock and returns the frozen
// timestamp: every transaction that completed before the increment committed
// strictly below the returned value, and every shard's
// stm.SnapshotThread.SnapshotAt at it observes exactly those transactions.
// The increment is a snapshot attempt's linearization point; exec is its
// only caller.
func (s *System) freezeTs() uint64 {
	s.freezes.Add(1)
	return s.clock.Increment()
}

// Freezes returns how many snapshot freezes the system has performed: one
// per attempt of every snapshot-mode body (escalated ReadOnly or Snapshot).
// Monotone; an observability counter.
func (s *System) Freezes() uint64 { return s.freezes.Load() }

// Stats implements stm.System: the sum over all shards.
func (s *System) Stats() stm.Stats {
	var total stm.Stats
	for _, sh := range s.shards {
		total.Add(sh.Stats())
	}
	return total
}

// ShardStats returns each shard's own counters (per-shard observability
// for the bench harness).
func (s *System) ShardStats() []stm.Stats {
	out := make([]stm.Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Close implements stm.System.
func (s *System) Close() {
	for _, sh := range s.shards {
		sh.Close()
	}
}

// Register implements stm.System: one underlying thread per shard, fanned
// out behind a single handle.
func (s *System) Register() stm.Thread { return s.RegisterSharded() }

// RegisterSharded is Register returning the concrete fan-out type.
func (s *System) RegisterSharded() *Thread {
	t := &Thread{sys: s}
	t.ths = make([]stm.Thread, len(s.shards))
	t.snaps = make([]stm.SnapshotThread, len(s.shards))
	for i, sh := range s.shards {
		t.ths[i] = sh.Register()
		t.snaps[i], _ = t.ths[i].(stm.SnapshotThread) // nil: no snapshot support
	}
	t.txn.th = t
	t.boundBody = func(in stm.Txn) {
		tx := &t.txn
		tx.state = stateBound
		tx.shard = t.bindShard
		tx.inner = in
		t.pendingFn(tx)
	}
	return t
}

// Thread is the per-worker fan-out handle (one registered thread per
// shard). Like every stm.Thread it is not safe for concurrent use.
type Thread struct {
	sys   *System
	ths   []stm.Thread
	snaps []stm.SnapshotThread
	txn   txn

	// Persistent bound-run plumbing (one closure for the Thread's
	// lifetime instead of one per transaction): runBound parks the user
	// body and target shard here and hands boundBody to the shard's TM.
	pendingFn func(stm.Txn)
	bindShard int
	boundBody func(stm.Txn)

	pin pinned // snapshot state: the shard thread pinnedAt last handed out
}

// Atomic implements stm.Thread. The body must confine its writes (and, for
// update transactions, all its operations) to keys of one shard.
func (t *Thread) Atomic(fn func(stm.Txn)) bool { return t.exec(fn, false, false) }

// ReadOnly implements stm.Thread. Bodies may read across shards: the first
// cross-shard query (or point read of a second shard) switches the body to
// snapshot mode at one frozen timestamp.
func (t *Thread) ReadOnly(fn func(stm.Txn)) bool { return t.exec(fn, true, false) }

// Snapshot runs fn as a read-only body over the whole system at one frozen
// timestamp and returns that timestamp: everything fn read is the state of
// every shard exactly at ts (commits below ts included, commits at or above
// it — also ones that finish before Snapshot returns — excluded). Unlike
// ReadOnly it starts in snapshot mode, with no probe run, on a single-shard
// system too. fn reruns from the top after a re-freeze, so it must reset
// whatever it accumulates. ok=false (with ts 0) means fn cancelled or the
// scan starved: snapshotFreezes timestamps in a row moved out from under it
// (a versionless backend under sustained updates; for Multiverse that has
// not reached Mode U, ROADMAP item 1).
func (t *Thread) Snapshot(fn func(stm.Txn)) (ts uint64, ok bool) {
	if !t.exec(fn, true, true) {
		return 0, false
	}
	return t.txn.ts, true
}

// Unregister implements stm.Thread.
func (t *Thread) Unregister() {
	for _, th := range t.ths {
		th.Unregister()
	}
}

// SetTrace implements stm.TraceSetter by forwarding the tracing context to
// every inner backend thread — the bound shard's transaction owns the retry
// loop and the commit, so that is where the per-attempt spans come from.
func (t *Thread) SetTrace(tr *obs.Tracer, id uint64) {
	for _, th := range t.ths {
		stm.SetTrace(th, tr, id)
	}
}

// Execution states of a shard transaction body.
const (
	stateIdle  = iota // between transactions
	stateProbe        // free run: first routed op picks the plan
	stateBound        // delegating to one shard's native transaction
	stateSnap         // read view at one frozen timestamp
)

// txn is the stm.Txn handed to Atomic/ReadOnly bodies. The embedded Hooks
// buffer serves the probe and snapshot states; the bound state delegates
// hooks to the underlying shard transaction.
type txn struct {
	stm.Hooks
	th       *Thread
	state    int
	readOnly bool
	shard    int     // stateBound: the bound shard
	inner    stm.Txn // stateBound: that shard's live transaction
	ts       uint64  // stateSnap: frozen shared-clock timestamp
	escalate bool    // bound read-only body needs the snapshot view
	armed    int     // stateProbe: first routed op's shard (-1: none yet)
	visitBuf []kv    // stateSnap: per-shard VisitTx staging
}

// arm records the probe's first routed operation: its shard becomes the
// body's execution plan, and the operation returns a placeholder so
// single-operation bodies — the dominant pattern, every ds package-level
// wrapper — finish the probe without a panic unwind. Probe effects never
// escape (the body reruns bound, like any STM retry), so the placeholder
// only steers the rest of this probe run; any second routed operation
// unwinds immediately via bind (so a body looping on an operation result
// cannot spin on a placeholder — its next call unwinds).
func (x *txn) arm(s int) {
	if x.armed >= 0 {
		panic(bindSignal{shard: x.armed})
	}
	x.armed = s
}

type kv struct{ k, v uint64 }

// bindSignal unwinds a probe run: the first routed operation answers "this
// body belongs on that shard" / "this body needs the snapshot view".
type bindSignal struct {
	shard int // < 0: snapshot mode
}

// toSnap is the snapshot-mode bindSignal, boxed once: a shard index fits
// the runtime's preallocated small-integer boxes, -1 would allocate on
// every cross-shard query's probe unwind.
var toSnap any = bindSignal{shard: -1}

// Outcomes of one free (probe or snapshot) run of the body.
const (
	freeCommitted = iota
	freeCancelled
	freeConflict
	freeBound
	freeSnap
)

// Re-freeze bounds of the one snapshot loop, constants picked by the entry
// point the way stm.Policy's are. An escalated ReadOnly body is one query
// among many and re-freezes at once. Snapshot is one long whole-map scan: it
// backs off snapshotPause·n after its n-th failed freeze and gives up sooner,
// because a scan that is going to starve anyway (versionless backend, or a
// TM that has not gone versioned yet) measurably taxes the updaters beside
// it for as long as it keeps re-freezing back to back.
const (
	escalatedFreezes = 64
	snapshotFreezes  = 16
	snapshotPause    = 100 * time.Microsecond
)

// exec runs one body: probe, then bound to a shard or in snapshot mode.
// whole (Snapshot) starts in snapshot mode under the snapshot bounds.
func (t *Thread) exec(fn func(stm.Txn), readOnly, whole bool) bool {
	tx := &t.txn
	if tx.state != stateIdle {
		panic("shard: nested transaction on one Thread")
	}
	tx.readOnly = readOnly
	defer func() {
		tx.state = stateIdle
		tx.inner = nil
		t.pendingFn = nil
		tx.Reset()
	}()
	snapMode, maxFreezes := whole, escalatedFreezes
	if whole {
		maxFreezes = snapshotFreezes
	}
	freezes := 0
	for {
		tx.Reset()
		tx.escalate = false
		tx.inner = nil
		tx.armed = -1
		if snapMode {
			if freezes >= maxFreezes {
				return false // cross-shard query starved
			}
			if whole && freezes > 0 {
				time.Sleep(time.Duration(freezes) * snapshotPause)
			}
			freezes++
			// Freeze: the one shared-clock increment that is the
			// query's linearization point.
			tx.ts = t.sys.freezeTs()
			tx.state = stateSnap
		} else {
			tx.state = stateProbe
		}
		kind, shard := t.runFree(fn)
		if tx.state == stateProbe && tx.armed >= 0 &&
			(kind == freeCommitted || kind == freeCancelled || kind == freeConflict) {
			// The armed probe ran on placeholder results, so only its
			// shard plan is trustworthy — not how the body finished: a
			// completion is the single-operation fast path, and a
			// cancel or abort may have been decided on a placeholder
			// value. Discard the probe run and execute bound; the body
			// re-decides commit/cancel/abort against real data inside
			// the shard's native transaction.
			kind, shard = freeBound, tx.armed
		}
		switch kind {
		case freeBound:
			ok := t.runBound(fn, shard, readOnly)
			if tx.escalate {
				snapMode = true
				continue
			}
			return ok
		case freeSnap:
			snapMode = true
		case freeCommitted:
			tx.RunCommit(t.retire)
			return true
		case freeCancelled:
			tx.RunAbort()
			return false
		case freeConflict:
			// stm.AbortAttempt unwound the body outside any shard
			// transaction: re-freeze (snapshot mode) or re-probe.
			continue
		}
	}
}

// runFree runs the body outside any underlying transaction (probe or
// snapshot state), converting bind/snap unwinds and abort/cancel unwinds
// into outcomes with a single recover (one panic traversal, no re-panic
// chain through stm.RunAttempt).
func (t *Thread) runFree(fn func(stm.Txn)) (kind, shard int) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if b, ok := r.(bindSignal); ok {
			if b.shard < 0 {
				kind = freeSnap
			} else {
				kind, shard = freeBound, b.shard
			}
			return
		}
		if oc, ok := stm.UnwindOutcome(r); ok {
			if oc == stm.Cancelled {
				kind = freeCancelled
			} else {
				kind = freeConflict
			}
			return
		}
		panic(r)
	}()
	fn(&t.txn)
	return freeCommitted, 0
}

// runBound reruns the body inside shard s's native transaction. The
// underlying TM owns the retry loop; every attempt re-binds the wrapper
// (via the Thread-lifetime boundBody closure, so binding allocates
// nothing).
func (t *Thread) runBound(fn func(stm.Txn), s int, readOnly bool) bool {
	t.pendingFn = fn
	t.bindShard = s
	if readOnly {
		return t.ths[s].ReadOnly(t.boundBody)
	}
	return t.ths[s].Atomic(t.boundBody)
}

// retire hands a pure or snapshot body's eventual-frees to shard 0's
// reclamation: an empty committed transaction whose only effect is the
// grace-period free.
func (t *Thread) retire(r ebr.Release) {
	t.ths[0].Atomic(func(in stm.Txn) { in.Free(r.Rel, r.Shard, r.Idx) })
}

// pinnedAt returns shard s's thread as a snapshot-state operation sees it:
// its ReadOnly runs SnapshotAt(ts), a mini read-only transaction that
// reports false when the shard cannot serve ts any more (the caller then
// aborts the body's attempt, and the exec loop re-freezes and reruns it). A
// point read, range or size goes through ds's wrappers on it, with a pooled,
// pre-bound body, so a cross-shard query allocates nothing.
func (t *Thread) pinnedAt(s int, ts uint64) stm.Thread {
	st := t.snaps[s]
	if st == nil {
		panic("shard: backend " + t.sys.shards[s].Name() +
			" does not support snapshot reads (stm.SnapshotThread); cross-shard queries need a snapshot-capable TM")
	}
	t.pin = pinned{st, ts}
	return &t.pin
}

// pinned is a shard thread whose read-only transactions run at one frozen
// timestamp. It serves the snapshot state's mini transactions only.
type pinned struct {
	st stm.SnapshotThread
	ts uint64
}

func (p *pinned) ReadOnly(fn func(stm.Txn)) bool { return p.st.SnapshotAt(p.ts, fn) }
func (p *pinned) Atomic(func(stm.Txn)) bool      { panic("shard: update inside a snapshot view") }
func (p *pinned) Unregister()                    {}

// escalateTo aborts the current execution plan in favor of a better one:
// from a probe run it unwinds directly (nothing has executed yet); from a
// bound read-only transaction it cancels the underlying transaction cleanly
// (never a foreign panic through a TM's retry loop — that would corrupt its
// announcements) and flags the exec loop to rerun in snapshot mode.
func (x *txn) escalateToSnap() {
	if x.state == stateProbe {
		panic(toSnap)
	}
	x.escalate = true
	stm.CancelTxn()
}

// rawWordMsg is the panic for Txn.Read/Write on a shard transaction: a bare
// word has no key to route by, and no structure's words would all land on
// one shard.
const rawWordMsg = "shard: raw word access outside a shard.Map (a stm.Word belongs to no shard; go through shard.Map, or register on one TM instance)"

// Read implements stm.Txn; raw words are not routable (package doc).
func (x *txn) Read(*stm.Word) uint64 { panic(rawWordMsg) }

// Write implements stm.Txn; raw words are not routable (package doc).
func (x *txn) Write(*stm.Word, uint64) { panic(rawWordMsg) }

// OnAbort implements stm.Txn, delegating to the bound shard transaction
// when there is one.
func (x *txn) OnAbort(rel ebr.Releaser, shard int, idx uint64) {
	if x.state == stateBound {
		x.inner.OnAbort(rel, shard, idx)
		return
	}
	x.Hooks.OnAbort(rel, shard, idx)
}

// OnCommit implements stm.Txn.
func (x *txn) OnCommit(f func()) {
	if x.state == stateBound {
		x.inner.OnCommit(f)
		return
	}
	x.Hooks.OnCommit(f)
}

// Free implements stm.Txn.
func (x *txn) Free(rel ebr.Releaser, shard int, idx uint64) {
	if x.state == stateBound {
		x.inner.Free(rel, shard, idx)
		return
	}
	x.Hooks.Free(rel, shard, idx)
}

// AppendRedo implements stm.RedoLogger. Bound bodies forward to the shard's
// live transaction, whose TM owns the commit (and hence the observation) of
// the record. Probe runs drop the record — their effects are discarded and
// the body reruns bound — and snapshot bodies are read-only, so a record
// appended there has no commit to ride.
func (x *txn) AppendRedo(rec stm.RedoRec) {
	if x.state == stateBound {
		if rl, ok := x.inner.(stm.RedoLogger); ok {
			rl.AppendRedo(rec)
		}
	}
}
