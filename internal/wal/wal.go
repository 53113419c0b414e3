// Package wal layers crash-consistent persistence over the transactional
// maps: a group-committed, checksummed, segment-rotating write-ahead log of
// committed write-sets, checkpoints taken as whole-system snapshots at frozen
// timestamps, and recovery that rebuilds the newest valid checkpoint plus the
// log suffix after a process death.
//
// # Design
//
// Durability is an observer of the commit protocol, never a participant.
// Each shard's TM instance is configured with a stm.CommitObserver (one
// stream per shard) that receives the transaction's logical redo records —
// captured by the wal.Map wrapper via stm.LogRedo — together with the
// commit timestamp, at the commit linearization point. The observer appends
// to an in-memory buffer; a group-commit flusher moves buffers to disk on a
// short interval (policy SyncGroup fsyncs each flush, SyncEveryCommit
// fsyncs inside the commit itself, SyncNone leaves writes to the OS). The
// hot path never waits on the disk except under SyncEveryCommit.
//
// Checkpoints read the map the way any cross-shard query does, through
// internal/shard's one snapshot reader: shard.Thread.Snapshot visits the
// whole map at one frozen shared-clock timestamp ts and returns it — so the
// image is a consistent cut of the whole sharded system without stopping
// writers. There is one kind of checkpoint: the full image at ts, encoded
// pair by pair as the scan visits it, so a checkpoint costs one pass and one
// file-sized buffer and leaves nothing behind in memory. Once it is durable,
// every older checkpoint file and every log segment whose records all commit
// below ts are deleted.
//
// Recovery loads the newest checkpoint that parses — a torn one is deleted
// and the one before it tried — then replays every surviving log record with
// commit ts >= the checkpoint ts, merged across shard streams in
// commit-timestamp order (stable, so equal-timestamp records — which never
// conflict — keep their per-stream order). A torn tail (partial record,
// flipped bit) cuts its stream at the last valid record: recovery truncates
// the torn suffix and removes any later segments of that stream, so a
// re-crash re-replays the identical state (idempotent re-replay). The rebuilt
// system restarts its shared clock above every persisted timestamp, so
// post-recovery commits extend the log's timestamp order.
//
// # Guarantees
//
// Committed-and-synced is durable: everything before a successful Sync (and
// every commit under SyncEveryCommit) survives any crash. Everything else
// recovers to a prefix-consistent cut: per stream, a prefix of the commit
// observation order — which respects write-write conflicts and read-from
// dependencies — and across streams, a vector of such prefixes (shards
// share no keys, and cross-shard update transactions do not exist, so the
// vector is a consistent cut of the whole system).
//
// # Streams partition the key space
//
// The streams a live log writes partition the key space: a key's records all
// sit in the one stream of the shard it routes to. Recovery does not need
// that — it merges every stream it finds in stable commit-ts order, which is
// why a directory may be reopened under another shard count — but a tailer
// does: ShipReader follows each stream on its own, so the older of two
// records of one key in two streams could reach a follower last. OpenWith
// therefore restores the invariant before it returns from a reopen under
// another layout — one where some surviving record sits in a stream its
// keys no longer route to; the directories alone do not say, a mirror keeps
// empty ones — by taking a checkpoint, which truncates every segment that
// holds a record. The old streams' records are then in the checkpoint, below
// every timestamp the new streams will carry.
package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/stm"
)

// SyncPolicy selects when the log reaches stable storage.
type SyncPolicy int

const (
	// SyncGroup (the default): the group-commit flusher writes and fsyncs
	// all streams every GroupInterval. Bounded loss window, near-zero
	// commit-path cost.
	SyncGroup SyncPolicy = iota
	// SyncNone: buffers are written on the group interval but never
	// fsynced. Survives process death (the OS still holds the pages),
	// not power loss. The baseline for measuring fsync cost.
	SyncNone
	// SyncEveryCommit: each commit writes and fsyncs its own record
	// before becoming visible to conflicting transactions. Zero loss of
	// acknowledged commits, full fsync latency on the commit path.
	SyncEveryCommit
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncEveryCommit:
		return "every"
	default:
		return "group"
	}
}

// PolicyByName maps the flag spelling (stmserve -policy) to a policy.
func PolicyByName(name string) (SyncPolicy, bool) {
	switch name {
	case "group", "":
		return SyncGroup, true
	case "none":
		return SyncNone, true
	case "every", "every-commit":
		return SyncEveryCommit, true
	}
	return SyncGroup, false
}

// DegradedMode selects the log's policy once a stream's flush retries are
// exhausted (RetryLimit consecutive failures, or immediately for
// permanent-class errors). In neither mode may a commit acked by a
// nil-returning Sync be lost; the modes differ only in who absorbs the
// pressure while the disk is down.
type DegradedMode int

const (
	// DegradeStall (the default): Sync — and the commit observer itself
	// under SyncEveryCommit — blocks, retrying with backoff, until the log
	// heals or StallTimeout elapses. Commits keep succeeding in memory; the
	// unacked backlog (Stats.Retained) grows until the disk returns.
	DegradeStall DegradedMode = iota
	// DegradeReject: once any stream's retries are exhausted, wal.Map
	// mutations abort (Atomic returns false) so no new commit can outrun
	// durability. Reads and the in-memory system continue; mutations resume
	// after the next successful flush heals the stream.
	DegradeReject
)

func (m DegradedMode) String() string {
	if m == DegradeReject {
		return "reject"
	}
	return "stall"
}

// Health is the log's failure state: the top of a three-state machine
// driven by per-stream flush outcomes.
//
//	Healthy ⇄ Degraded → Severed
//
// Healthy: every stream's last flush attempt succeeded. Degraded: at least
// one stream is retaining records past a failed flush (retries in
// progress; the DegradedMode policy is in force once they exhaust). A
// degraded log heals back to Healthy on the next fully successful flush.
// Severed is terminal: Crash() was called or the log was closed.
type Health int

const (
	Healthy Health = iota
	Degraded
	Severed
)

func (h Health) String() string {
	switch h {
	case Degraded:
		return "degraded"
	case Severed:
		return "severed"
	}
	return "healthy"
}

// Err returns the sentinel for a failure state (nil for Healthy), so call
// sites that refuse work because of the log's health can wrap a value that
// errors.Is can classify.
func (h Health) Err() error {
	switch h {
	case Degraded:
		return ErrDegraded
	case Severed:
		return ErrSevered
	}
	return nil
}

// Sentinel errors for the log's failure states. Every error the log returns
// *because of* its health wraps one of these, so callers — the wire-protocol
// server mapping health to error codes, tests asserting failure modes —
// classify with errors.Is instead of string matching.
var (
	// ErrSevered: the log is terminally gone — Crash() was called or the
	// log was closed. Nothing further will be persisted.
	ErrSevered = errors.New("wal: log is severed")
	// ErrDegraded: at least one stream is retaining records past a failed
	// flush and the degraded-mode policy gave up waiting (stall timeout, or
	// reject mode). The records remain retained; a later Sync may still ack
	// them once the disk heals.
	ErrDegraded = errors.New("wal: log is degraded")
)

// Options configures OpenWith. The zero value of every field selects a
// sensible default (hashmap over group-committed multiverse shards).
type Options struct {
	// Dir is the log directory (created if absent). Required.
	Dir string
	// Backend is the TM under the log, by internal/registry name:
	// "multiverse" (default) or any other registry.Durable TM (the
	// Multiverse variants, "tl2", "dctl").
	Backend string
	// Shards is the number of TM instances / log streams (default 1).
	Shards int
	// DS picks the per-shard structure: "hashmap" (default), "abtree",
	// "avl" or "extbst".
	DS string
	// Capacity hints the total key capacity (default 1<<16), divided
	// across shards.
	Capacity int
	// LockTable sizes each shard's lock table (default 1<<16).
	LockTable int
	// SegmentBytes rotates a stream's segment past this size (default
	// 4 MiB).
	SegmentBytes int
	// Policy is the fsync policy (default SyncGroup).
	Policy SyncPolicy
	// GroupInterval is the flusher period (default 2ms).
	GroupInterval time.Duration
	// FS is the filesystem seam every I/O call goes through (default
	// fault.OS, the zero-overhead passthrough). Tests install a
	// fault.Injector here to drive the log through its failure paths.
	FS fault.FS
	// DegradedMode selects stall vs reject once flush retries exhaust
	// (default DegradeStall).
	DegradedMode DegradedMode
	// RetryLimit is the number of consecutive failed flush attempts on a
	// stream before the DegradedMode policy engages (default 3).
	// Permanent-class errors engage it immediately; retries themselves
	// never stop while the log is open — a disk can heal at any time.
	RetryLimit int
	// RetryBackoffMax caps the exponential retry backoff that starts at
	// GroupInterval and doubles per consecutive failure (default 50ms).
	RetryBackoffMax time.Duration
	// StallTimeout bounds how long a stalled Sync (or SyncEveryCommit
	// observer) blocks waiting for the log to heal (default 2s).
	StallTimeout time.Duration
	// Obs, when non-nil, gets the log's metrics registered on it: wal.*
	// counters (live views over the same atomics Stats() reads), wal.health,
	// per-shard TM counters (shard.N.*) and the aggregated abort-reason
	// breakdown. Registration happens once in OpenWith.
	Obs *obs.Registry
	// Rec, when non-nil, receives flight-recorder events: WAL health
	// transitions, checkpoint lifecycle, group-commit batch sizes, and (via
	// the TM configs) abort and mode-switch events from every shard.
	Rec *obs.Recorder
	// Trace, when non-nil, receives per-stage spans for sampled commits:
	// wal-append in ObserveCommit, wal-coalesce and wal-fsync when the
	// covering group-commit flush lands.
	Trace *obs.Tracer
}

func (o *Options) fill() error {
	if o.Dir == "" {
		return errors.New("wal: Options.Dir is required")
	}
	if o.Backend == "" {
		o.Backend = "multiverse"
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Shards < 1 {
		return fmt.Errorf("wal: bad shard count %d", o.Shards)
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.GroupInterval == 0 {
		o.GroupInterval = 2 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = fault.OS
	}
	if o.RetryLimit == 0 {
		o.RetryLimit = 3
	}
	if o.RetryBackoffMax == 0 {
		o.RetryBackoffMax = 50 * time.Millisecond
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 2 * time.Second
	}
	return nil
}

// Stats is a snapshot of the log's counters.
type Stats struct {
	Records        uint64 // commit records appended (buffered or written)
	BytesAppended  uint64 // bytes written to segment files
	Fsyncs         uint64
	DroppedAppends uint64 // records dropped after Crash severed the log
	Checkpoints    uint64
	StarvedCkpts   uint64 // Checkpoint calls whose pinned scan starved (nothing written)
	LastCkptTs     uint64
	LastCkptPause  time.Duration // wall time of the last Checkpoint call
	RecoveredPairs int           // pairs loaded into the system at Open
	RecoveredTs    uint64        // checkpoint ts recovery started from

	// Failure-plane counters.
	Retained      uint64        // gauge: records retained past a failed flush (unacked backlog)
	FlushFailures uint64        // failed flush attempts (each retained everything)
	Degradations  uint64        // healthy→degraded transitions
	DegradedTime  time.Duration // total time spent degraded (completed episodes)
	PoisonedSegs  uint64        // segments sealed after a failed fsync
	RejectedOps   uint64        // wal.Map mutations aborted by DegradeReject
	CloseDebtRecs uint64        // records a nil Close left without fsync coverage (SyncNone)
	CloseDebtSegs uint64        // sealed segments a nil Close left without fsync coverage (SyncNone)
}

// Log owns a sharded TM system, its per-shard log streams, and the
// checkpointer. It is created by Open/OpenWith; the returned ds.Map is the
// logging wrapper bound to it.
type Log struct {
	opts    Options
	fs      fault.FS
	sys     *shard.System
	inner   *shard.Map
	streams []*stream
	ckptTh  *shard.Thread // the checkpointer's reader; used under mu

	rec   *obs.Recorder // flight recorder (nil-safe); copied from Options.Rec
	trace *obs.Tracer   // span tracer (nil-safe); copied from Options.Trace

	severed    atomic.Bool
	closedFlag atomic.Bool // mirrors closed for lock-free reads (stall loops)
	stopFlush  chan struct{}
	flushWG    sync.WaitGroup

	degradedStreams  atomic.Int32 // streams currently retaining past a failure
	exhaustedStreams atomic.Int32 // streams whose retries are exhausted (mode in force)

	// Checkpoint state, guarded by mu (Checkpoint and Close serialize);
	// lastCkptTs is atomic because Stats may poll it from any goroutine.
	mu         sync.Mutex
	lastCkptTs atomic.Uint64
	ckptPairs  int       // pairs the last scan visited (at Open: recovery loaded) — the next image's size hint
	ckptFiles  []string  // checkpoint files on disk; the next healthy checkpoint removes them all
	legacySegs []segInfo // pre-recovery segments (possibly of dropped shard dirs)

	records        atomic.Uint64
	bytesAppended  atomic.Uint64
	fsyncs         atomic.Uint64
	droppedAppends atomic.Uint64
	checkpoints    atomic.Uint64
	starvedCkpts   atomic.Uint64
	lastCkptPause  atomic.Int64
	flushFailures  atomic.Uint64
	degradations   atomic.Uint64
	poisonedSegs   atomic.Uint64
	rejectedOps    atomic.Uint64
	closeDebtRecs  atomic.Uint64
	closeDebtSegs  atomic.Uint64
	degradedNanos  atomic.Int64
	recoveredPairs int
	recoveredTs    uint64

	closed bool
}

// Open opens (creating or recovering) a durable map in dir over shards
// instances of the named backend, with default options. See OpenWith.
func Open(dir, backend string, shards int) (ds.Map, *Log, error) {
	return OpenWith(Options{Dir: dir, Backend: backend, Shards: shards})
}

// OpenWith opens the log directory described by opts. If dir holds a
// previous incarnation's state, OpenWith recovers it — newest valid
// checkpoint plus replayed log suffix — into the fresh system before
// returning; the shard count may differ from the previous incarnation's
// (records route by key, not by stream), in which case the open also
// checkpoints, so that the old layout's streams are gone before the new
// one's take a record (see "Streams partition the key space"). The returned
// ds.Map logs every mutation; drive it with threads registered on
// Log.System().
func OpenWith(opts Options) (m ds.Map, l *Log, err error) {
	if err := opts.fill(); err != nil {
		return nil, nil, err
	}
	if !registry.Durable(opts.Backend) {
		return nil, nil, fmt.Errorf("wal: backend %q cannot carry a log (needs snapshot reads and commit observation)", opts.Backend)
	}
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}

	// Phase 1: read (and repair) what a previous incarnation left behind.
	// A read fault here is a hard open failure — recovery must never
	// mistake an unreadable file for a torn one and "repair" it away.
	rec, err := scanAndRepair(fsys, opts.Dir, opts.Shards)
	if err != nil {
		return nil, nil, err
	}

	l = &Log{opts: opts, fs: fsys, rec: opts.Rec, trace: opts.Trace, stopFlush: make(chan struct{})}
	l.recoveredPairs, l.ckptPairs = len(rec.image), len(rec.image)
	l.recoveredTs = rec.ckptTs
	l.lastCkptTs.Store(rec.ckptTs)
	l.ckptFiles = rec.ckpts
	l.legacySegs = rec.liveSegs

	// Phase 2: streams, each appending a fresh segment after the highest
	// existing one in its shard directory.
	l.streams = make([]*stream, opts.Shards)
	for i := range l.streams {
		dir := filepath.Join(opts.Dir, ShardDirName(i))
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		s := &stream{l: l, shard: i, dir: dir, next: rec.nextSeg[dir]}
		s.mu.Lock()
		err := s.openSegmentLocked()
		s.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
		l.streams[i] = s
	}

	// Phase 3: the sharded system, clock restarted above every persisted
	// timestamp so new commits extend the log's timestamp order.
	l.sys, l.inner, err = NewStore(StoreSpec{Backend: opts.Backend, DS: opts.DS, Shards: opts.Shards,
		Capacity: opts.Capacity, LockTable: opts.LockTable, Rec: opts.Rec},
		func(i int) stm.CommitObserver { return l.streams[i] }, rec.maxTs+1)
	if err != nil {
		return nil, nil, err
	}
	l.ckptTh = l.sys.RegisterSharded()

	// Phase 4: load the recovered image. Raw inserts on the inner map
	// append no redo, so the load is not re-logged (it is already durable
	// in the checkpoint and surviving segments).
	if err := Load(l.sys, l.ckptTh, l.inner, nil, rec.image); err != nil {
		l.sys.Close()
		return nil, nil, err
	}

	// Phase 5: group-commit flusher (SyncEveryCommit writes inline, but
	// the flusher still drives rotation-after-idle and SyncNone writes).
	l.flushWG.Add(1)
	go l.flushLoop()

	// Phase 6: a directory last written under another shard layout holds
	// streams that do not partition this incarnation's key space (package
	// comment). Before any new record exists, take a checkpoint: it
	// truncates every legacy segment.
	if rec.resharded {
		if _, err := l.Checkpoint(); err != nil {
			l.Close()
			return nil, nil, fmt.Errorf("wal: checkpoint after a reshard: %w", err)
		}
	}

	if opts.Obs != nil {
		l.RegisterObs(opts.Obs)
	}
	return &Map{inner: l.inner, log: l}, l, nil
}

// RegisterObs exposes the log and its sharded TM system on reg as live
// collector callbacks: snapshots read the same atomics Stats() and
// ShardStats() read, so there is no hot-path double counting. OpenWith calls
// it when Options.Obs is set; a server layering its own registry over an
// already-open log may call it directly.
func (l *Log) RegisterObs(reg *obs.Registry) {
	reg.Text(func(emit func(name, v string)) {
		emit("wal.health", l.Health().String())
	})
	reg.Func(func(emit func(name string, v uint64)) {
		st := l.Stats()
		emit("wal.records", st.Records)
		emit("wal.bytes_appended", st.BytesAppended)
		emit("wal.fsyncs", st.Fsyncs)
		emit("wal.dropped_appends", st.DroppedAppends)
		emit("wal.checkpoints", st.Checkpoints)
		emit("wal.ckpt_starved", st.StarvedCkpts)
		emit("wal.last_ckpt_ts", st.LastCkptTs)
		emit("wal.last_ckpt_pause_ns", uint64(st.LastCkptPause))
		emit("wal.retained", st.Retained)
		emit("wal.flush_failures", st.FlushFailures)
		emit("wal.degradations", st.Degradations)
		emit("wal.degraded_time_ns", uint64(st.DegradedTime))
		emit("wal.poisoned_segs", st.PoisonedSegs)
		emit("wal.rejected_ops", st.RejectedOps)
		RegisterShardStats(emit, l.sys)
	})
}

// RegisterShardStats emits the sharded system's per-shard TM counters and
// the aggregated abort-reason breakdown under flat dotted names. Shared by
// the wal and server registrations (duplicate emissions over one registry
// agree; the later one wins).
func RegisterShardStats(emit func(name string, v uint64), sys *shard.System) {
	emit("shard.freezes", sys.Freezes())
	var total stm.Stats
	for i, ss := range sys.ShardStats() {
		prefix := fmt.Sprintf("shard.%d.", i)
		emit(prefix+"commits", ss.Commits)
		emit(prefix+"aborts", ss.Aborts)
		emit(prefix+"starved", ss.Starved)
		emit(prefix+"read_only_commits", ss.ReadOnlyCommits)
		emit(prefix+"versioned_commits", ss.VersionedCommits)
		emit(prefix+"version_list_reads", ss.VersionListReads)
		emit(prefix+"mode_switches", ss.ModeSwitches)
		total.Add(ss)
	}
	for r, n := range total.AbortReasons {
		emit("aborts.reason."+obs.AbortReason(r).String(), n)
	}
}

// StoreSpec is what NewStore builds. Backend and Shards are the caller's to
// resolve — it needs them before the store — while a zero DS, Capacity or
// LockTable takes the default Options documents: here, where they are read,
// and nowhere else.
type StoreSpec struct {
	Backend, DS                 string
	Shards, Capacity, LockTable int           // Capacity is the whole map's, LockTable each shard's
	Rec                         *obs.Recorder // the TMs' flight recorder (nil: none)
}

// NewStore builds the sharded system and map that spec describes: the one
// construction behind a log — observe(i) is shard i's stream, clockStart lies
// above every recovered timestamp — and behind a follower of one, which
// passes no observer (its commits are replays; logging them would be a
// second, diverging history). The caller has checked
// registry.Durable(spec.Backend).
func NewStore(spec StoreSpec, observe func(shard int) stm.CommitObserver, clockStart uint64) (*shard.System, *shard.Map, error) {
	if spec.DS == "" {
		spec.DS = "hashmap"
	}
	if spec.Capacity == 0 {
		spec.Capacity = 1 << 16
	}
	if spec.LockTable == 0 {
		spec.LockTable = 1 << 16
	}
	backend, err := registry.ShardBackend(spec.Backend,
		registry.Params{LockTable: spec.LockTable, ObsConfig: stm.ObsConfig{Obs: spec.Rec}}, observe)
	if err != nil {
		return nil, nil, err
	}
	maps := make([]ds.Map, spec.Shards)
	for i := range maps {
		if maps[i], err = registry.NewDS(spec.DS, max(1024, spec.Capacity/spec.Shards)); err != nil {
			return nil, nil, err
		}
	}
	sys := shard.New(shard.Config{Shards: spec.Shards, Backend: backend, ClockStart: clockStart})
	return sys, shard.NewMap(sys, func(i int) ds.Map { return maps[i] }), nil
}

// Load installs an image into m on the caller's thread: it deletes dels,
// then inserts image's pairs (absent keys only — a key whose value changes
// is in both), batching per shard so each update transaction stays
// shard-confined. Recovery loads the recovered image into a fresh map this
// way; a follower loads its base image and, at a rebase, the difference from
// what it holds.
func Load(sys *shard.System, th *shard.Thread, m *shard.Map, dels []uint64, image map[uint64]uint64) error {
	byShard := make([][]stm.RedoRec, sys.NumShards())
	for _, k := range dels {
		s := sys.ShardOf(k)
		byShard[s] = append(byShard[s], stm.RedoRec{Op: stm.RedoDelete, Key: k})
	}
	for k, v := range image {
		s := sys.ShardOf(k)
		byShard[s] = append(byShard[s], stm.RedoRec{Op: stm.RedoInsert, Key: k, Val: v})
	}
	const batch = 256
	for _, ops := range byShard {
		for len(ops) > 0 {
			chunk := ops[:min(batch, len(ops))]
			ops = ops[len(chunk):]
			if !th.Atomic(func(tx stm.Txn) {
				for _, op := range chunk {
					if op.Op == stm.RedoDelete {
						m.DeleteTx(tx, op.Key)
					} else {
						m.InsertTx(tx, op.Key, op.Val)
					}
				}
			}) {
				return errors.New("wal: image load transaction starved")
			}
		}
	}
	return nil
}

func (l *Log) flushLoop() {
	defer l.flushWG.Done()
	t := time.NewTicker(l.opts.GroupInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-t.C:
			if l.severed.Load() {
				return
			}
			sync := l.opts.Policy == SyncGroup
			now := time.Now()
			for _, s := range l.streams {
				s.mu.Lock()
				// Degraded streams retry on their capped-exponential
				// schedule, not every tick; explicit Sync calls bypass
				// the gate.
				if !s.degraded || !now.Before(s.nextRetry) {
					s.flushLocked(sync)
				}
				s.mu.Unlock()
			}
		}
	}
}

// System returns the underlying sharded TM; register worker threads here.
func (l *Log) System() *shard.System { return l.sys }

// Sync is a durability barrier: it writes and fsyncs every stream's buffer
// regardless of policy. A nil return is the log's ack: every commit
// observed before Sync was called is on stable storage and survives any
// crash — the no-silent-loss contract. A non-nil return vouches for
// nothing beyond the previous nil Sync; the unacked records remain
// retained (Stats.Retained) and later Syncs retry them. Under
// DegradeStall a failing Sync blocks, retrying with backoff, until the
// log heals or StallTimeout elapses.
func (l *Log) Sync() error {
	if l.closedFlag.Load() {
		return fmt.Errorf("wal: Sync on a closed log: %w", ErrSevered)
	}
	if l.severed.Load() {
		return fmt.Errorf("wal: Sync: %w", ErrSevered)
	}
	deadline := time.Now().Add(l.opts.StallTimeout)
	for {
		var errs []error
		for _, s := range l.streams {
			s.mu.Lock()
			if err := s.flushLocked(true); err != nil {
				errs = append(errs, err)
			}
			s.mu.Unlock()
		}
		if len(errs) == 0 {
			return nil
		}
		if l.opts.DegradedMode != DegradeStall || !time.Now().Before(deadline) {
			return fmt.Errorf("%w: %w", ErrDegraded, errors.Join(errs...))
		}
		time.Sleep(l.opts.GroupInterval)
		if l.closedFlag.Load() {
			return fmt.Errorf("wal: Sync on a closed log: %w", ErrSevered)
		}
		if l.severed.Load() {
			return fmt.Errorf("wal: Sync: %w", ErrSevered)
		}
	}
}

// Crash severs the log, simulating the instant of a process death: the
// in-memory group-commit buffers are lost, segment files stay exactly as
// last written, and every subsequent append is dropped. The in-memory
// system keeps running (a torture harness lets traffic drain before
// abandoning it); Close after Crash closes files without flushing.
// Recovery is exercised by reopening the directory.
func (l *Log) Crash() {
	l.severed.Store(true)
	l.rec.Record(obs.EvWalSevered, 0, 0, 0)
}

// Err aggregates the current I/O error of every stream (errors.Join; nil
// when all streams are healthy). A stream's error clears when it heals, so
// Err reflects present health, not history — Stats keeps the history.
func (l *Log) Err() error {
	var errs []error
	for _, s := range l.streams {
		s.mu.Lock()
		if s.err != nil {
			errs = append(errs, s.err)
		}
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Health reports the log's failure state; see the Health type for the
// state machine.
func (l *Log) Health() Health {
	if l.severed.Load() || l.closedFlag.Load() {
		return Severed
	}
	if l.degradedStreams.Load() > 0 {
		return Degraded
	}
	return Healthy
}

// rejecting reports whether DegradeReject is currently refusing mutations.
func (l *Log) rejecting() bool {
	return l.opts.DegradedMode == DegradeReject && l.exhaustedStreams.Load() > 0
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	var retained uint64
	for _, s := range l.streams {
		retained += s.retained()
	}
	return Stats{
		Retained:      retained,
		FlushFailures: l.flushFailures.Load(),
		Degradations:  l.degradations.Load(),
		DegradedTime:  time.Duration(l.degradedNanos.Load()),
		PoisonedSegs:  l.poisonedSegs.Load(),
		RejectedOps:   l.rejectedOps.Load(),
		CloseDebtRecs: l.closeDebtRecs.Load(),
		CloseDebtSegs: l.closeDebtSegs.Load(),

		Records:        l.records.Load(),
		BytesAppended:  l.bytesAppended.Load(),
		Fsyncs:         l.fsyncs.Load(),
		DroppedAppends: l.droppedAppends.Load(),
		Checkpoints:    l.checkpoints.Load(),
		StarvedCkpts:   l.starvedCkpts.Load(),
		LastCkptTs:     l.lastCkptTs.Load(),
		LastCkptPause:  time.Duration(l.lastCkptPause.Load()),
		RecoveredPairs: l.recoveredPairs,
		RecoveredTs:    l.recoveredTs,
	}
}

// Close flushes (unless severed), stops the flusher, closes every segment
// file, and shuts the TM system down.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.closedFlag.Store(true)
	close(l.stopFlush)
	l.flushWG.Wait()
	severed := l.severed.Load()
	var errs []error
	for _, s := range l.streams {
		if err := s.close(severed); err != nil {
			errs = append(errs, err)
		}
	}
	l.severed.Store(true) // post-close appends are drops, not writes to closed files
	l.ckptTh.Unregister()
	l.sys.Close()
	return errors.Join(errs...)
}
