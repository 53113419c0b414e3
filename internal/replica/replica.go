// Package replica implements log-shipping read replicas over the WAL.
//
// A Replica tails a leader's log directory — directly (same machine or a
// replicated mount) or a local copy maintained by a Receiver fed from a
// leader-side Shipper over the wire protocol's CRC framing (the Replica runs
// that Receiver itself when Options.Leader names the leader) — and replays
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
// ordinary wal recovery path — newest valid checkpoint plus replayed
// suffix, torn tails repaired, the shared clock restarted above every
// persisted timestamp. A shipped-but-never-applied suffix therefore means
// never-promoted-as-applied: an unanswered shipment is indistinguishable
// from one that never happened, and nothing acked by the leader's durable
// prefix is lost.
package replica

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
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
	// Leader, when set, is a leader's shipping address (stmserve -ship): the
	// Replica itself keeps a Receiver session into Dir alive — dial, mirror,
	// redial when the session dies — until Sever, Close or Promote. Empty
	// means Dir is fed by someone else: the leader writing it directly, or a
	// Receiver the caller runs.
	Leader string
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
	// that carries a sampled trace id. With Leader set the spans' start
	// times are shifted by the channel's clock-offset estimate into the
	// leader's timebase, next to the originating request's server spans.
	Trace *obs.Tracer
}

const (
	// pollInterval is the applier's idle backoff.
	pollInterval = 500 * time.Microsecond
	// redialInterval paces the feed's dials while the leader is unreachable.
	redialInterval = 200 * time.Millisecond
)

// fill resolves what Open itself reads; DS, Capacity and the lock table
// default where the store is built (wal.NewStore), so the leader a follower
// is promoted to gets the same.
func (o *Options) fill() error {
	if o.Dir == "" {
		return fmt.Errorf("replica: Options.Dir is required")
	}
	if o.Backend == "" {
		o.Backend = "multiverse"
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

	lastProgress atomic.Int64 // unix nanos of the last applied batch or caught-up poll
	clockOff     atomic.Int64 // follower-minus-leader clock estimate of the feed's sessions (0: no feed)

	caughtUp atomic.Bool

	errMu   sync.Mutex
	lastErr error // the applier's: last tail error, or the apply error that ended it
	feedErr error // the feed's: why the last dial or session ended

	ctx  context.Context // done: the session is severed, the applier and the feed stop
	stop context.CancelFunc
	wg   sync.WaitGroup // the applier, and the feed when Options.Leader is set

	// applyOps' transaction body, bound once (internal/shard's boundBody
	// pattern): the applier is one goroutine, so the ops it commits are
	// parked in applying rather than captured by a closure per record.
	applying  []stm.RedoRec
	applyBody func(stm.Txn)
}

// Open starts a follower session tailing opts.Dir — and, when opts.Leader is
// set, feeding it. The applier (and feed) run until Sever, Close or Promote.
func Open(opts Options) (*Replica, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if !registry.Durable(opts.Backend) {
		return nil, fmt.Errorf("replica: backend %q cannot follow (needs snapshot reads)", opts.Backend)
	}
	sys, m, err := wal.NewStore(wal.StoreSpec{Backend: opts.Backend, DS: opts.DS, Shards: opts.Shards, Capacity: opts.Capacity}, nil, 0)
	if err != nil {
		return nil, err
	}
	r := &Replica{opts: opts, sys: sys, m: m, reader: wal.OpenShipReader(opts.Dir, opts.FS)}
	r.applyBody = r.applyParked
	r.ctx, r.stop = context.WithCancel(context.Background())
	r.lastProgress.Store(time.Now().UnixNano())
	if opts.Obs != nil {
		r.registerObs(opts.Obs)
	}
	r.wg.Add(1)
	go r.run()
	if opts.Leader != "" {
		r.wg.Add(1)
		go r.feed()
	}
	return r, nil
}

// feed keeps the mirror fed: one Receiver session after another into Dir. A
// session dies on any channel fault — a torn frame kills it by design — and
// the next one's manifest hello resumes the transfer where the bytes stopped.
func (r *Replica) feed() {
	defer r.wg.Done()
	var d net.Dialer
	for r.ctx.Err() == nil {
		conn, err := d.DialContext(r.ctx, "tcp", r.opts.Leader)
		if err == nil {
			r.setErr(&r.feedErr, nil) // a session is up: the last one's end is history
			rc := NewReceiver(conn, r.opts.Dir)
			rc.clockOff = &r.clockOff
			unhook := context.AfterFunc(r.ctx, rc.Stop)
			err = rc.Run()
			unhook()
		}
		r.setErr(&r.feedErr, err)
		r.sleep(redialInterval)
	}
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
		emit("replica.applied_ts", st.AppliedTs)
		emit("replica.rebases", st.Rebases)
		emit("replica.lag_ns", r.LagNs())
	})
}

// LagNs returns 0 while the follower is caught up, otherwise the
// nanoseconds since it last made forward progress.
func (r *Replica) LagNs() uint64 {
	if r.Health() == CaughtUp {
		return 0
	}
	return uint64(max(0, time.Now().UnixNano()-r.lastProgress.Load()))
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
	if r.ctx.Err() != nil {
		return Severed
	}
	if r.Err() != nil || !r.caughtUp.Load() {
		return Lagging
	}
	return CaughtUp
}

// Err returns the last tail error (nil once a later poll succeeds) or the
// apply error that ended the applier; failing those, why the feed's last
// dial or session ended (nil while a session is up).
func (r *Replica) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return cmp.Or(r.lastErr, r.feedErr)
}

func (r *Replica) setErr(which *error, err error) {
	r.errMu.Lock()
	*which = err
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
		if r.ctx.Err() != nil {
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

// Sever terminates the session: the applier and the feed stop, Health
// reports Severed forever, and the follower keeps serving its last applied
// state.
func (r *Replica) Sever() {
	r.stop()
	r.wg.Wait()
}

// Close severs the session and shuts the follower system down.
func (r *Replica) Close() {
	r.Sever()
	r.sys.Close()
}

// Promote ends the follower session and re-opens the tailed directory as a
// leader through the ordinary wal recovery path: newest valid checkpoint
// plus replayed suffix, torn tails repaired, clock restarted above every
// persisted timestamp. The Replica is consumed; the returned map and
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
// An apply error ends it — skipping a shipped record would be silent
// divergence — and stays in Err.
func (r *Replica) run() {
	defer r.wg.Done()
	th := r.sys.RegisterSharded()
	defer th.Unregister()
	for r.ctx.Err() == nil {
		b, err := r.reader.Poll()
		r.polls.Add(1)
		r.setErr(&r.lastErr, err) // nil once a poll succeeds again
		if err != nil {
			r.caughtUp.Store(false)
			r.sleep(pollInterval)
			continue
		}
		switch {
		case b.Rebase:
			err = r.applyRebase(th, &b)
		case len(b.Recs) > 0:
			r.caughtUp.Store(false)
			err = r.applyRecs(th, b.Recs)
		default:
			r.caughtUp.Store(true)
			r.emptyPolls.Add(1)
			r.lastProgress.Store(time.Now().UnixNano())
			r.sleep(pollInterval)
		}
		if err != nil {
			r.setErr(&r.lastErr, err)
			return
		}
	}
}

// sleep waits d out, or the session's end if that comes first.
func (r *Replica) sleep(d time.Duration) {
	select {
	case <-r.ctx.Done():
	case <-time.After(d):
	}
}

// applyRebase replaces the follower state with a base image by applying
// the diff against an export of the follower's own map — so an initial
// image loads fully, and a mid-session rebase (checkpoint truncation outran
// the tail) touches only what actually changed. The applier is the map's
// only writer, so the export is exactly the applied state — and cannot
// starve: nothing commits beside the scan, so its first freeze serves it.
func (r *Replica) applyRebase(th *shard.Thread, b *wal.ShipBatch) error {
	held, ok := ds.Export(th, r.m, 1, ^uint64(0))
	if !ok {
		return errors.New("replica: rebase export starved with the applier as the map's only writer")
	}
	// The batch's image is this call's to consume: pairs the follower
	// already holds are struck from it, what is left gets inserted. A held
	// pair gone from the base is deleted, and so is one whose value changed
	// (InsertTx is insert-if-absent; wal.Load deletes before it inserts).
	live := len(b.Image)
	var dels []uint64
	for _, p := range held {
		if v, ok := b.Image[p.Key]; ok && v == p.Val {
			delete(b.Image, p.Key)
		} else {
			dels = append(dels, p.Key)
		}
	}
	if err := wal.Load(r.sys, th, r.m, dels, b.Image); err != nil {
		return err
	}
	r.rebases.Add(1)
	if b.BaseTs > r.appliedTs.Load() {
		r.appliedTs.Store(b.BaseTs)
	}
	r.caughtUp.Store(false)
	r.lastProgress.Store(time.Now().UnixNano())
	r.opts.Rec.Record(obs.EvReplicaRebase, b.BaseTs, uint64(live), 0)
	return nil
}

// applyRecs applies shipped commit records in arrival order. Each record
// is one follower transaction when its ops stay on one follower shard
// (always true when the shard counts match — keys route by the same hash);
// otherwise it splits into one transaction per shard group.
func (r *Replica) applyRecs(th *shard.Thread, recs []wal.ShipRec) error {
	for _, rec := range recs {
		var applyT0 int64
		if rec.Trace != 0 && r.opts.Trace != nil {
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
			var err error
			if same {
				err = r.applyOps(th, rec.Redo)
			} else {
				byShard := make(map[int][]stm.RedoRec)
				for _, op := range rec.Redo {
					s := r.sys.ShardOf(op.Key)
					byShard[s] = append(byShard[s], op)
				}
				for _, group := range byShard {
					if err = r.applyOps(th, group); err != nil {
						break
					}
				}
			}
			if err != nil {
				return err
			}
			r.appliedOps.Add(uint64(len(rec.Redo)))
		}
		r.appliedRecs.Add(1)
		if rec.Ts > r.appliedTs.Load() {
			r.appliedTs.Store(rec.Ts)
		}
		if applyT0 != 0 {
			off := r.clockOff.Load()
			end := time.Now().UnixNano()
			r.opts.Trace.Record(rec.Trace, obs.StageReplicaApply, uint64(rec.Shard),
				applyT0-off, end-applyT0, rec.Ts, uint64(off))
		}
	}
	r.lastProgress.Store(time.Now().UnixNano())
	return nil
}

// applyOps commits one shard-confined group of redo ops. Every durable
// backend's Atomic is unbounded and this body never cancels, so a false
// return is a broken backend contract: an error, never a skipped record.
func (r *Replica) applyOps(th *shard.Thread, ops []stm.RedoRec) error {
	r.applying = ops
	ok := th.Atomic(r.applyBody)
	r.applying = nil
	if !ok {
		return errors.New("replica: apply transaction starved; the session cannot continue without skipping a record")
	}
	return nil
}

// applyParked is applyBody: it applies the parked ops, and only reads them,
// so a rerun after a retry or the shard probe starts from the same record.
func (r *Replica) applyParked(tx stm.Txn) {
	for _, op := range r.applying {
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
}
