// Package replica implements log-shipping read replicas over the WAL.
//
// A Replica tails a leader's log directory — directly (same machine or a
// replicated mount) or a local copy maintained by a Receiver fed from a
// leader-side Shipper over the wire protocol's CRC framing — and replays
// committed records continuously into its own shard.System. Reads are
// served from that system the same way the leader serves them: point reads
// route to one shard, cross-shard queries freeze the follower's clock and
// scan every shard pinned at the frozen timestamp (internal/shard's one
// snapshot reader, which the applier's own rebase diff goes through too —
// the follower keeps no second copy of its state). Writes are refused;
// they belong to the leader (internal/server's ReadOnly mode maps them to
// StatusReadOnly on the wire).
//
// # Consistency model
//
// The follower's state always equals a leader state: a checkpoint base
// image plus a per-stream prefix of subsequent commit records — exactly
// the set of states the leader's own recovery could produce. AppliedTs is
// the follower's watermark in the leader's timestamp order; it only moves
// forward. Lag is the distance between that watermark and the leader's
// head; Health maps it onto the PR 6 vocabulary: CaughtUp (last poll found
// nothing new), Lagging (applying, or a transient tail/ship fault is being
// retried), Severed (the session was terminated — only an explicit Sever
// or Close does that, mirroring the WAL's "degraded heals, severed is
// forever" discipline).
//
// # Promotion
//
// Promote ends the session with the same termination discipline the WAL
// gives a crashed leader: the applier stops, the follower's in-memory
// system is discarded, and the log directory is re-opened through the
// ordinary wal recovery path — newest valid checkpoint chain plus replayed
// suffix, torn tails repaired, the shared clock restarted above every
// persisted timestamp. A shipped-but-never-applied suffix therefore means
// never-promoted-as-applied: an unanswered shipment is indistinguishable
// from one that never happened, and nothing acked by the leader's durable
// prefix is lost.
package replica

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/wal"
)

// Health is the replica's session state.
type Health int

const (
	// CaughtUp: the last poll found nothing new — the follower has applied
	// everything visible in the tailed directory.
	CaughtUp Health = iota
	// Lagging: records are being applied, or a transient fault on the tail
	// is being retried. The follower still serves (stale) snapshot reads.
	Lagging
	// Severed: the session was terminated (Sever, Close or Promote).
	// Severed is forever; a new session means a new Replica.
	Severed
)

func (h Health) String() string {
	switch h {
	case CaughtUp:
		return "caught-up"
	case Lagging:
		return "lagging"
	default:
		return "severed"
	}
}

// Options configures a Replica. Only Dir is required.
type Options struct {
	// Dir is the log directory to tail: the leader's own WAL directory, or
	// the local copy a Receiver maintains.
	Dir string
	// Backend is the follower's TM, by internal/registry name: any
	// registry.Durable TM (default "multiverse").
	Backend string
	// Shards is the follower's shard count. 0 derives it from the tailed
	// directory's shard-* layout, so leader-confined transactions stay
	// confined on the follower; with a different count, records whose ops
	// cross follower shards are applied per shard group.
	Shards int
	// DS names the per-shard structure (default "hashmap").
	DS string
	// Capacity is the expected key count (default 1<<16).
	Capacity int
	// FS is the filesystem seam the tail reads through (default fault.OS);
	// an Injector here fault-tests the reading side.
	FS fault.FS
	// Obs, when set, receives the replica's live collectors (replica.*
	// counters, applied-ts watermark, lag).
	Obs *obs.Registry
	// Rec, when set, receives rebase flight-recorder events.
	Rec *obs.Recorder
	// Trace, when set, receives one replica-apply span per applied record
	// that carries a sampled trace id.
	Trace *obs.Tracer
	// ClockOffsetNs, when set, supplies the current follower-minus-leader
	// clock-offset estimate (Receiver.ClockOffsetNs); apply spans subtract
	// it so their start times land in the leader's timebase next to the
	// originating request's server spans.
	ClockOffsetNs func() int64
}

// pollInterval is the applier's idle backoff.
const pollInterval = 500 * time.Microsecond

// lockTable sizes each follower shard's lock table: wal.Options' default, so
// the leader a follower is promoted to has the same.
const lockTable = 1 << 16

func (o *Options) fill() error {
	if o.Dir == "" {
		return fmt.Errorf("replica: Options.Dir is required")
	}
	if o.Backend == "" {
		o.Backend = "multiverse"
	}
	if o.DS == "" {
		o.DS = "hashmap"
	}
	if o.Capacity == 0 {
		o.Capacity = 1 << 16
	}
	if o.FS == nil {
		o.FS = fault.OS
	}
	if o.Shards == 0 {
		ls, err := wal.ListDir(o.FS, o.Dir)
		if err != nil {
			return err
		}
		o.Shards = max(1, len(ls.Shards))
	}
	return nil
}

// Stats is a snapshot of the replica's counters.
type Stats struct {
	AppliedRecs uint64 // commit records applied since open
	AppliedOps  uint64 // individual redo ops applied
	AppliedTs   uint64 // watermark in the leader's timestamp order
	Rebases     uint64 // base images applied (1 = just the initial one)
	Polls       uint64
	EmptyPolls  uint64 // polls that found nothing new
}

// Replica is one follower session. Reads go through Map()/System() with
// caller-registered threads, exactly like the leader's map.
type Replica struct {
	opts   Options
	sys    *shard.System
	m      *shard.Map
	reader *wal.ShipReader

	appliedRecs atomic.Uint64
	appliedOps  atomic.Uint64
	appliedTs   atomic.Uint64
	rebases     atomic.Uint64
	polls       atomic.Uint64
	emptyPolls  atomic.Uint64

	rec          *obs.Recorder
	trace        *obs.Tracer
	lastProgress atomic.Int64 // unix nanos of the last applied batch or caught-up poll

	caughtUp atomic.Bool
	severed  atomic.Bool

	errMu   sync.Mutex
	lastErr error

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// Open starts a follower session tailing opts.Dir. The applier goroutine
// runs until Sever, Close or Promote.
func Open(opts Options) (*Replica, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	// The same constructions the WAL uses, minus the commit observer: the
	// follower's own commits are replays; logging them again would be a
	// second, diverging history.
	if !registry.Durable(opts.Backend) {
		return nil, fmt.Errorf("replica: backend %q cannot follow (needs snapshot reads)", opts.Backend)
	}
	backend, err := registry.ShardBackend(opts.Backend, registry.Params{LockTable: lockTable}, nil)
	if err != nil {
		return nil, err
	}
	per := opts.Capacity / opts.Shards
	if per < 1024 {
		per = 1024
	}
	maps := make([]ds.Map, opts.Shards)
	for i := range maps {
		if maps[i], err = registry.NewDS(opts.DS, per); err != nil {
			return nil, err
		}
	}
	r := &Replica{
		opts:   opts,
		reader: wal.OpenShipReader(opts.Dir, opts.FS),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		rec:    opts.Rec,
		trace:  opts.Trace,
	}
	r.lastProgress.Store(time.Now().UnixNano())
	r.sys = shard.New(shard.Config{Shards: opts.Shards, Backend: backend})
	r.m = shard.NewMap(r.sys, func(i int) ds.Map { return maps[i] })
	if opts.Obs != nil {
		r.registerObs(opts.Obs)
	}
	go r.run()
	return r, nil
}

// registerObs exposes the follower session on reg as live collectors.
// replica.lag_ns is 0 while caught up; otherwise the time since the last
// forward progress (an applied batch or a drained poll) — the operator's
// "how stale are this follower's reads" number.
func (r *Replica) registerObs(reg *obs.Registry) {
	reg.Text(func(emit func(name, v string)) {
		emit("replica.health", r.Health().String())
	})
	reg.Func(func(emit func(name string, v uint64)) {
		st := r.Stats()
		emit("replica.applied_recs", st.AppliedRecs)
		emit("replica.applied_ops", st.AppliedOps)
		emit("replica.applied_ts", st.AppliedTs)
		emit("replica.rebases", st.Rebases)
		emit("replica.polls", st.Polls)
		emit("replica.empty_polls", st.EmptyPolls)
		emit("replica.lag_ns", r.LagNs())
		caught := uint64(0)
		if r.Health() == CaughtUp {
			caught = 1
		}
		emit("replica.caught_up", caught)
	})
}

// LagNs returns 0 while the follower is caught up, otherwise the
// nanoseconds since it last made forward progress.
func (r *Replica) LagNs() uint64 {
	if r.Health() == CaughtUp {
		return 0
	}
	d := time.Now().UnixNano() - r.lastProgress.Load()
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// Map returns the follower's logical map; drive reads with threads
// registered on System().
func (r *Replica) Map() ds.Map { return r.m }

// System returns the follower's sharded TM.
func (r *Replica) System() *shard.System { return r.sys }

// AppliedTs returns the follower's watermark in the leader's timestamp
// order: every leader commit with ts < the last rebase's base ts, plus
// every applied record's ts, is reflected in the served state.
func (r *Replica) AppliedTs() uint64 { return r.appliedTs.Load() }

// Stats snapshots the replica counters.
func (r *Replica) Stats() Stats {
	return Stats{
		AppliedRecs: r.appliedRecs.Load(),
		AppliedOps:  r.appliedOps.Load(),
		AppliedTs:   r.appliedTs.Load(),
		Rebases:     r.rebases.Load(),
		Polls:       r.polls.Load(),
		EmptyPolls:  r.emptyPolls.Load(),
	}
}

// Health maps the session state onto the PR 6 vocabulary.
func (r *Replica) Health() Health {
	if r.severed.Load() {
		return Severed
	}
	if r.Err() != nil || !r.caughtUp.Load() {
		return Lagging
	}
	return CaughtUp
}

// Err returns the last tail/apply error, nil once a later poll succeeds.
func (r *Replica) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.lastErr
}

func (r *Replica) setErr(err error) {
	r.errMu.Lock()
	r.lastErr = err
	r.errMu.Unlock()
}

// CatchUp blocks until the follower has drained everything visible in the
// tailed directory (Health CaughtUp) or the timeout passes. With a
// quiesced leader a nil return means the follower state equals the
// leader's durable-plus-buffered-written state.
func (r *Replica) CatchUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	// The caught-up flag describes the last COMPLETED poll, which may
	// predate writes the caller just made. Insist on polls advancing by two:
	// the first post-call poll may have been in flight (reading directories
	// from before the caller's writes landed), the second necessarily
	// started after this call and saw everything.
	start := r.polls.Load()
	for {
		if r.severed.Load() {
			return fmt.Errorf("replica: severed while catching up")
		}
		if r.caughtUp.Load() && r.Err() == nil && r.polls.Load() >= start+2 {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("replica: catch-up timeout (applied %d recs, ts %d): %v",
				r.appliedRecs.Load(), r.appliedTs.Load(), r.Err())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Sever terminates the session: the applier stops, Health reports Severed
// forever, and the follower keeps serving its last applied state.
func (r *Replica) Sever() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.severed.Store(true)
}

// Close severs the session and shuts the follower system down.
func (r *Replica) Close() {
	r.Sever()
	r.sys.Close()
}

// Promote ends the follower session and re-opens the tailed directory as a
// leader through the ordinary wal recovery path: newest valid checkpoint
// chain plus replayed suffix, torn tails repaired, clock restarted above
// every persisted timestamp. The Replica is consumed; the returned map and
// log are a fresh leader over the same history.
func (r *Replica) Promote() (ds.Map, *wal.Log, error) {
	r.Close()
	return wal.OpenWith(wal.Options{
		Dir:      r.opts.Dir,
		Backend:  r.opts.Backend,
		Shards:   r.opts.Shards,
		DS:       r.opts.DS,
		Capacity: r.opts.Capacity,
		FS:       r.opts.FS,
	})
}

// run is the applier: poll the ship reader, apply, back off when drained.
func (r *Replica) run() {
	defer close(r.done)
	th := r.sys.RegisterSharded()
	defer th.Unregister()
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		b, err := r.reader.Poll()
		r.polls.Add(1)
		if err != nil {
			r.setErr(err)
			r.caughtUp.Store(false)
			r.idle()
			continue
		}
		r.setErr(nil)
		switch {
		case b.Rebase:
			r.applyRebase(th, &b)
		case len(b.Recs) > 0:
			r.caughtUp.Store(false)
			r.applyRecs(th, b.Recs)
		default:
			r.caughtUp.Store(true)
			r.emptyPolls.Add(1)
			r.lastProgress.Store(time.Now().UnixNano())
			r.idle()
		}
	}
}

func (r *Replica) idle() {
	select {
	case <-r.stop:
	case <-time.After(pollInterval):
	}
}

// applyRebase replaces the follower state with a base image by applying
// the diff against an export of the follower's own map — so an initial
// image loads fully, and a mid-session rebase (checkpoint truncation outran
// the tail) touches only what actually changed. The applier is the map's
// only writer, so the export is exactly the applied state; like applyOps,
// the only exits are success and session stop.
func (r *Replica) applyRebase(th *shard.Thread, b *wal.ShipBatch) {
	var held []ds.KV
	for {
		var ok bool
		if held, ok = ds.Export(th, r.m, 1, ^uint64(0)); ok {
			break
		}
		select {
		case <-r.stop:
			return
		case <-time.After(100 * time.Microsecond):
		}
	}
	// The batch's image is this call's to consume: pairs the follower
	// already holds are struck from it, what is left gets inserted.
	live := len(b.Image)
	var ops []stm.RedoRec
	for _, p := range held {
		if v, ok := b.Image[p.Key]; ok && v == p.Val {
			delete(b.Image, p.Key)
			continue
		}
		// Gone from the base, or changed: InsertTx is insert-if-absent, so a
		// changed value needs the delete first (deletes precede the inserts
		// below, and per-shard grouping keeps that order).
		ops = append(ops, stm.RedoRec{Op: stm.RedoDelete, Key: p.Key})
	}
	for k, v := range b.Image {
		ops = append(ops, stm.RedoRec{Op: stm.RedoInsert, Key: k, Val: v})
	}
	byShard := make([][]stm.RedoRec, r.sys.NumShards())
	for _, op := range ops {
		s := r.sys.ShardOf(op.Key)
		byShard[s] = append(byShard[s], op)
	}
	const batch = 256
	for _, shardOps := range byShard {
		for len(shardOps) > 0 {
			n := min(batch, len(shardOps))
			r.applyOps(th, shardOps[:n])
			shardOps = shardOps[n:]
		}
	}
	r.rebases.Add(1)
	if b.BaseTs > r.appliedTs.Load() {
		r.appliedTs.Store(b.BaseTs)
	}
	r.caughtUp.Store(false)
	r.lastProgress.Store(time.Now().UnixNano())
	r.rec.Record(obs.EvReplicaRebase, b.BaseTs, uint64(live), 0)
}

// applyRecs applies shipped commit records in arrival order. Each record
// is one follower transaction when its ops stay on one follower shard
// (always true when the shard counts match — keys route by the same hash);
// otherwise it splits into one transaction per shard group.
func (r *Replica) applyRecs(th *shard.Thread, recs []wal.ShipRec) {
	for _, rec := range recs {
		var applyT0 int64
		if rec.Trace != 0 && r.trace != nil {
			applyT0 = time.Now().UnixNano()
		}
		if len(rec.Redo) > 0 {
			home, same := r.sys.ShardOf(rec.Redo[0].Key), true
			for _, op := range rec.Redo[1:] {
				if r.sys.ShardOf(op.Key) != home {
					same = false
					break
				}
			}
			if same {
				r.applyOps(th, rec.Redo)
			} else {
				byShard := make(map[int][]stm.RedoRec)
				for _, op := range rec.Redo {
					s := r.sys.ShardOf(op.Key)
					byShard[s] = append(byShard[s], op)
				}
				for _, group := range byShard {
					r.applyOps(th, group)
				}
			}
			r.appliedOps.Add(uint64(len(rec.Redo)))
		}
		r.appliedRecs.Add(1)
		if rec.Ts > r.appliedTs.Load() {
			r.appliedTs.Store(rec.Ts)
		}
		if applyT0 != 0 {
			var off int64
			if r.opts.ClockOffsetNs != nil {
				off = r.opts.ClockOffsetNs()
			}
			end := time.Now().UnixNano()
			r.trace.Record(rec.Trace, obs.StageReplicaApply, uint64(rec.Shard),
				applyT0-off, end-applyT0, rec.Ts, uint64(off))
		}
	}
	r.lastProgress.Store(time.Now().UnixNano())
}

// applyOps commits one shard-confined group of redo ops, retrying
// starvation — skipping a shipped record would be silent divergence, so
// the only exits are success and session stop.
func (r *Replica) applyOps(th *shard.Thread, ops []stm.RedoRec) {
	for {
		ok := th.Atomic(func(tx stm.Txn) {
			for _, op := range ops {
				if op.Op == stm.RedoDelete {
					r.m.DeleteTx(tx, op.Key)
					continue
				}
				// Redo values are absolute, so replay is an upsert: a key the
				// follower already holds (a rebase-boundary or seal-suffix
				// duplicate) is overwritten, never silently kept stale.
				if !r.m.InsertTx(tx, op.Key, op.Val) {
					r.m.DeleteTx(tx, op.Key)
					r.m.InsertTx(tx, op.Key, op.Val)
				}
			}
		})
		if ok {
			return
		}
		select {
		case <-r.stop:
			return
		case <-time.After(100 * time.Microsecond):
		}
	}
}
