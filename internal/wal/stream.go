package wal

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stm"
)

// segInfo tracks one on-disk segment of a stream.
type segInfo struct {
	index uint64
	path  string
	maxTs uint64 // highest commit ts of any record in the segment
}

// stream is one shard's log: the stm.CommitObserver installed on that
// shard's TM instance. ObserveCommit encodes the committed redo into an
// in-memory buffer under the append lock (inMu) — an encode and a few stores,
// the only work done inside the commit critical section under the
// SyncNone/SyncGroup policies, and never behind a disk operation: the
// transaction still holds its write locks there, and a commit parked behind
// an fsync parks every reader of its words too. The Log's group-commit
// flusher moves buffers to disk under the flush lock (mu). Under
// SyncEveryCommit the committing thread itself takes the flush lock, and
// writes and fsyncs before its commit becomes visible to conflicting
// transactions.
//
// Record bytes move in → buf → unsynced → fsync-covered. in holds what
// ObserveCommit appended since the last flush attempt began; a flush attempt
// starts by taking all of it onto buf, which holds encoded records not yet
// fully written to the active segment; unsynced holds bytes written but not
// yet covered by a successful fsync. None is ever dropped on an I/O error: a
// failed flush *retains* everything, degrades the stream, and the flusher
// retries with capped backoff until the disk heals — so a later
// nil-returning Sync still vouches for every record appended before it, and
// a record is forgotten only once it is durable (or the process dies, which
// is exactly what recovery's prefix contract covers).
//
// Within a stream the append order is the shard's commit observation order,
// so the on-disk byte sequence — and any crash-cut prefix of it — is a
// causally consistent prefix of that shard's committed history. Retention
// preserves this: retained bytes are re-appended ahead of anything newer
// (in is only ever taken onto the *end* of buf).
//
// Two locks, never held in the other order than mu → inMu: inMu guards the
// four in* fields and nothing else, and is never held across I/O; mu
// serializes flush attempts and owns everything from buf down — file,
// segments, retention and failure state.
type stream struct {
	l     *Log
	shard int
	dir   string

	inMu       sync.Mutex
	in         []byte      // encoded records no flush attempt has taken yet
	inRecs     int         // records in in
	inMaxTs    uint64      // highest commit ts in in
	inPend     []pendTrace // traced records in in; see pend
	inDegraded bool        // mirrors degraded: appends keep the retained gauge current

	mu           sync.Mutex
	buf          []byte // encoded records not yet fully written
	bufRecs      int
	bufMaxTs     uint64 // highest commit ts taken from in and not yet folded into a segment's maxTs
	unsynced     []byte // written to the active segment, not yet fsync-covered
	unsyncedRecs int
	unsyncedSegs []unsyncedSeg // SyncNone: segments sealed without fsync; a Sync barrier covers them by path

	f           fault.File
	seg         segInfo   // active segment
	done        []segInfo // completed segments, oldest first
	next        uint64    // index the next openSegmentLocked will use
	segBytes    int       // bytes written to the active segment (incl. any torn tail)
	syncedBytes int       // prefix of the active segment covered by the last successful fsync
	needSeal    bool      // active segment is poisoned (failed fsync) or torn (partial write)
	dirDirty    bool      // SyncNone: a segment was created without a directory fsync

	err        error // latest I/O error; cleared when the stream heals
	fails      int   // consecutive failed flush attempts
	degraded   bool
	exhausted  bool // retries exhausted: the degraded-mode policy is in force
	degradedAt time.Time
	nextRetry  time.Time // flusher backoff gate; explicit Sync attempts ignore it
	closed     bool

	retainedG atomic.Uint64 // gauge: records retained past a failed flush; written under inMu

	// pend holds the append times of traced records awaiting their covering
	// fsync, so a successful sync flush can close one wal-coalesce and one
	// wal-fsync span per traced record. Bounded: sampled records are rare by
	// construction, and an overflowing entry just loses its WAL spans.
	pend []pendTrace
}

// pendTrace is one traced record waiting for its covering fsync.
type pendTrace struct {
	trace uint64
	ns    int64 // append completion, UnixNano
}

// maxPendTraces bounds the per-stream pend list.
const maxPendTraces = 1024

// unsyncedSeg is one sealed-without-fsync segment (SyncNone rotations) and
// how many records it carries — the stream's fsync debt, itemized.
type unsyncedSeg struct {
	path string
	recs int
}

// openSegmentLocked starts segment s.next in s.dir. Caller holds s.mu.
func (s *stream) openSegmentLocked() error {
	path := segPath(s.dir, s.next)
	f, err := s.l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			// A foreign file squats on this index. It cannot be one of
			// ours (recovery started us past every existing segment and we
			// increment from there), and *skipping* it would be silent
			// loss: recovery reads the squatter as a torn middle of the
			// stream and drops every later segment. Evict it; the retry
			// reopens this index. A failed eviction (EACCES, immutable
			// file) blocks this index forever — name it, or Log.Err only
			// ever shows the generic O_EXCL collision.
			if rerr := s.l.fs.Remove(path); rerr != nil && !fault.NotExist(rerr) {
				return fmt.Errorf("cannot evict squatter segment %s: %w (open: %v)", path, rerr, err)
			}
		}
		return err
	}
	hdr := appendSegHeader(nil, s.shard)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		s.l.fs.Remove(f.Name()) // best-effort: a header-less file is unusable
		return err
	}
	if s.l.opts.Policy != SyncNone {
		// The new entry must survive power loss before any truncation
		// decision treats this segment as the stream's durable tail.
		if err := syncDir(s.l.fs, s.dir); err != nil {
			f.Close()
			return err
		}
	} else {
		// Deferred, not skipped: the Sync barrier must fsync the directory
		// before it returns nil, or it vouches for segments whose directory
		// entries could vanish on power loss.
		s.dirDirty = true
	}
	// Retained records re-appended here carry timestamps from the sealed
	// predecessor; inherit its maxTs so truncateBelow can never reap this
	// segment while it still holds them (overstating maxTs only delays
	// truncation, never loses data).
	inherit := uint64(0)
	if s.bufRecs > 0 || s.unsyncedRecs > 0 {
		inherit = s.seg.maxTs
	}
	s.f = f
	s.seg = segInfo{index: s.next, path: f.Name(), maxTs: inherit}
	s.next++
	s.segBytes = len(hdr)
	s.syncedBytes = len(hdr)
	return nil
}

// ObserveCommit implements stm.CommitObserver. It runs on the committing
// goroutine while the transaction's write locks are held; see
// stm.CommitObserver for why that placement makes prefix cuts of the stream
// consistent. A severed (crashed) log drops the record — exactly what a
// dead process would do.
func (s *stream) ObserveCommit(ts, trace uint64, redo []stm.RedoRec) {
	if s.l.severed.Load() {
		s.l.droppedAppends.Add(1)
		return
	}
	var t0 int64
	traced := trace != 0 && s.l.trace != nil
	if traced {
		t0 = time.Now().UnixNano()
	}
	every := s.l.opts.Policy == SyncEveryCommit
	if every {
		// The flush lock first: this commit's record is written and fsynced
		// by the inline flush below, in observation order.
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	s.inMu.Lock()
	s.in = appendRecord(s.in, ts, trace, redo)
	s.inRecs++
	if ts > s.inMaxTs {
		s.inMaxTs = ts
	}
	if traced {
		now := time.Now().UnixNano()
		s.l.trace.Record(trace, obs.StageWalAppend, uint64(s.shard), t0, now-t0, ts, 0)
		if len(s.inPend) < maxPendTraces {
			s.inPend = append(s.inPend, pendTrace{trace: trace, ns: now})
		}
	}
	if s.inDegraded {
		s.retainedG.Add(1)
	}
	s.inMu.Unlock()
	s.l.records.Add(1)
	if every {
		if err := s.flushLocked(true); err != nil && s.l.opts.DegradedMode == DegradeStall {
			// Stall: the commit is already decided — the observer cannot
			// un-commit it — so hold its visibility (we still own the
			// transaction's write locks) while the log heals, bounded by
			// StallTimeout. On timeout the record stays retained and the
			// unacked backlog grows; only a nil Sync ever vouches for it.
			s.stallLocked()
		}
	}
}

// takeInLocked starts a flush attempt: everything appended so far moves onto
// the end of buf (a slice swap when nothing is retained there), behind any
// retained bytes. Caller holds s.mu.
func (s *stream) takeInLocked() {
	s.inMu.Lock()
	if len(s.buf) == 0 {
		s.buf, s.in = s.in, s.buf
	} else {
		s.buf = append(s.buf, s.in...)
		s.in = s.in[:0]
	}
	s.bufRecs += s.inRecs
	s.bufMaxTs = max(s.bufMaxTs, s.inMaxTs)
	s.pend = append(s.pend, s.inPend[:min(len(s.inPend), maxPendTraces-len(s.pend))]...)
	s.inRecs, s.inMaxTs, s.inPend = 0, 0, s.inPend[:0]
	s.inMu.Unlock()
}

// stallLocked retries the inline flush with backoff until it succeeds, the
// stall window closes, or the log is severed/closed. Caller holds s.mu.
func (s *stream) stallLocked() {
	deadline := time.Now().Add(s.l.opts.StallTimeout)
	for time.Now().Before(deadline) && !s.l.severed.Load() && !s.l.closedFlag.Load() {
		d := time.Until(s.nextRetry)
		if d < 100*time.Microsecond {
			d = 100 * time.Microsecond
		}
		if rem := time.Until(deadline); d > rem {
			d = rem
		}
		time.Sleep(d)
		if s.flushLocked(true) == nil {
			return
		}
	}
}

// flushLocked makes one attempt to move everything appended so far to disk:
// take in onto buf, repair the active segment (seal + fresh open) if needed,
// drain the buffer, fsync when sync is set, and rotate past SegmentBytes. On
// failure every byte stays retained and the stream degrades; nil means the
// buffer is drained and — when sync was set — everything appended before
// this call is durable. Caller holds s.mu.
func (s *stream) flushLocked(sync bool) error {
	if s.closed {
		return fmt.Errorf("wal: shard %d: flush on a closed stream", s.shard)
	}
	s.takeInLocked()
	batch := s.bufRecs + s.unsyncedRecs // records this attempt makes durable
	if s.needSeal {
		if err := s.sealLocked(); err != nil {
			return s.failLocked(err)
		}
	}
	if s.f == nil {
		if err := s.openSegmentLocked(); err != nil {
			return s.failLocked(err)
		}
	}
	// The timestamps taken from in belong to the segment that receives the
	// bytes — this one, whatever was active when they were observed. From
	// here the inheritance in openSegmentLocked carries them along if the
	// bytes have to move again.
	s.seg.maxTs = max(s.seg.maxTs, s.bufMaxTs)
	s.bufMaxTs = 0
	if len(s.buf) > 0 {
		n, err := s.f.Write(s.buf)
		if n > 0 {
			s.segBytes += n
			s.l.bytesAppended.Add(uint64(n))
		}
		if err != nil {
			if n > 0 {
				// The partial write may have torn a record into the file;
				// nothing may ever be appended after a torn point.
				s.needSeal = true
			}
			return s.failLocked(err)
		}
		s.unsynced = append(s.unsynced, s.buf...)
		s.unsyncedRecs += s.bufRecs
		s.buf = s.buf[:0]
		s.bufRecs = 0
	}
	var preFsyncNs int64
	if sync && len(s.pend) > 0 {
		preFsyncNs = time.Now().UnixNano()
	}
	if sync {
		if err := s.fsyncLocked(); err != nil {
			return s.failLocked(err)
		}
	}
	if s.segBytes >= s.l.opts.SegmentBytes {
		if err := s.rotateLocked(sync); err != nil {
			return s.failLocked(err)
		}
	}
	s.healLocked()
	if sync && batch > 0 {
		s.l.rec.Record(obs.EvGroupCommit, uint64(s.shard), uint64(batch), 0)
		if len(s.pend) > 0 {
			endNs := time.Now().UnixNano()
			for _, p := range s.pend {
				s.l.trace.Record(p.trace, obs.StageWalCoalesce, uint64(s.shard),
					p.ns, preFsyncNs-p.ns, uint64(batch), 0)
				s.l.trace.Record(p.trace, obs.StageWalFsync, uint64(s.shard),
					preFsyncNs, endNs-preFsyncNs, uint64(batch), 0)
			}
			s.pend = s.pend[:0]
		}
	}
	return nil
}

// fsyncLocked is the durability step of a flush: it first covers any
// segment sealed without an fsync (SyncNone rotations), then fsyncs the
// active segment. A failed fsync poisons the segment: the kernel may have
// dropped the dirty pages and marked them clean, so a *later* fsync of the
// same file could report success without the data ever reaching disk — the
// fd must never be fsynced again. Poisoning marks the segment for sealing;
// its unsynced suffix is re-appended to a fresh segment before anything can
// be acked. Caller holds s.mu.
func (s *stream) fsyncLocked() error {
	for len(s.unsyncedSegs) > 0 {
		if err := fsyncPath(s.l.fs, s.unsyncedSegs[0].path); err != nil {
			if fault.NotExist(err) {
				// Truncated away by a checkpoint; durable there instead.
				s.unsyncedSegs = s.unsyncedSegs[1:]
				continue
			}
			return err
		}
		s.l.fsyncs.Add(1)
		s.unsyncedSegs = s.unsyncedSegs[1:]
	}
	if s.dirDirty {
		// SyncNone created segments without a directory fsync; cover their
		// entries before this barrier can vouch for them. A failure here
		// does not poison the segment fd — no needSeal.
		if err := syncDir(s.l.fs, s.dir); err != nil {
			return err
		}
		s.l.fsyncs.Add(1)
		s.dirDirty = false
	}
	if len(s.unsynced) == 0 && s.syncedBytes == s.segBytes {
		return nil // nothing new since the last successful fsync
	}
	if err := s.f.Sync(); err != nil {
		s.needSeal = true
		s.l.poisonedSegs.Add(1)
		return err
	}
	s.l.fsyncs.Add(1)
	s.syncedBytes = s.segBytes
	s.unsynced = s.unsynced[:0]
	s.unsyncedRecs = 0
	return nil
}

// sealLocked retires a poisoned or torn active segment: the file is cut
// back to its last fsync-covered prefix (never re-fsynced — see
// fsyncLocked), and every retained byte past that prefix moves back to the
// front of the buffer, to be re-appended to a fresh segment ahead of
// anything newer. Order matters: the truncate must land before the next
// segment takes writes, so recovery can never see a torn non-final segment
// whose successor holds live records. Caller holds s.mu.
func (s *stream) sealLocked() error {
	if s.f != nil {
		if err := s.f.Truncate(int64(s.syncedBytes)); err != nil {
			return err // still sealed-pending; retried next attempt
		}
		s.f.Close() // best-effort: the fd is abandoned either way
		if s.syncedBytes > segHeaderSize {
			s.done = append(s.done, s.seg)
		} else {
			s.l.fs.Remove(s.seg.path) // best-effort: nothing durable inside
		}
		s.f = nil
	}
	if len(s.unsynced) > 0 {
		joined := make([]byte, 0, len(s.unsynced)+len(s.buf))
		joined = append(append(joined, s.unsynced...), s.buf...)
		s.buf = joined
		s.bufRecs += s.unsyncedRecs
		s.unsynced = s.unsynced[:0]
		s.unsyncedRecs = 0
	}
	s.needSeal = false
	return nil
}

// rotateLocked seals the full active segment and opens the next one. Under
// SyncGroup/SyncEveryCommit the segment is made durable before it is
// sealed; SyncNone remembers the sealed path so a later Sync barrier can
// cover it. Caller holds s.mu.
func (s *stream) rotateLocked(alreadySynced bool) error {
	switch {
	case s.l.opts.Policy == SyncNone:
		if len(s.unsynced) > 0 {
			s.unsyncedSegs = append(s.unsyncedSegs, unsyncedSeg{path: s.seg.path, recs: s.unsyncedRecs})
			s.unsynced = s.unsynced[:0]
			s.unsyncedRecs = 0
		}
	case !alreadySynced:
		if err := s.fsyncLocked(); err != nil {
			return err
		}
	}
	err := s.f.Close()
	s.f = nil
	s.done = append(s.done, s.seg)
	if err != nil {
		// The data is already durable (or tracked in unsyncedSegs); the
		// fd is gone either way. Surface the error once; the next attempt
		// opens the successor.
		return err
	}
	return s.openSegmentLocked()
}

// failLocked records one failed flush attempt: the error is kept for
// Log.Err, the stream degrades (transitioning the Log's health), retries
// exhaust after RetryLimit consecutive failures — immediately for
// permanent-class errors — and the flusher's next attempt is pushed out by
// capped exponential backoff. Caller holds s.mu.
func (s *stream) failLocked(err error) error {
	err = fmt.Errorf("wal: shard %d: %w", s.shard, err)
	s.err = err
	s.fails++
	s.l.flushFailures.Add(1)
	entered := false
	if !s.degraded {
		s.degraded = true
		s.degradedAt = time.Now()
		s.l.degradations.Add(1)
		s.l.degradedStreams.Add(1)
		entered = true
	}
	exhausted := false
	if !s.exhausted && (s.fails > s.l.opts.RetryLimit || !fault.Transient(err)) {
		s.exhausted = true
		s.l.exhaustedStreams.Add(1)
		exhausted = true
	}
	if entered || exhausted {
		var ex uint64
		if s.exhausted {
			ex = 1
		}
		s.l.rec.Record(obs.EvWalDegraded, uint64(s.shard), uint64(s.fails), ex)
	}
	d := s.l.opts.GroupInterval
	for i := 1; i < s.fails && d < s.l.opts.RetryBackoffMax; i++ {
		d *= 2
	}
	if d > s.l.opts.RetryBackoffMax {
		d = s.l.opts.RetryBackoffMax
	}
	s.nextRetry = time.Now().Add(d)
	// Inside the append lock, so the gauge and the appends that keep it
	// current from here agree on what was counted.
	s.inMu.Lock()
	s.inDegraded = true
	s.retainedG.Store(uint64(s.bufRecs + s.unsyncedRecs + s.inRecs))
	s.inMu.Unlock()
	return err
}

// healLocked ends a degraded episode after a fully successful flush
// attempt. Caller holds s.mu.
func (s *stream) healLocked() {
	if s.degraded {
		s.degraded = false
		s.fails = 0
		s.err = nil
		s.nextRetry = time.Time{}
		episode := time.Since(s.degradedAt)
		s.l.degradedNanos.Add(episode.Nanoseconds())
		s.l.degradedStreams.Add(-1)
		if s.exhausted {
			s.exhausted = false
			s.l.exhaustedStreams.Add(-1)
		}
		s.l.rec.Record(obs.EvWalHealed, uint64(s.shard), uint64(episode.Nanoseconds()), 0)
		s.inMu.Lock()
		s.inDegraded = false
		s.retainedG.Store(0)
		s.inMu.Unlock()
	}
}

// truncateBelow removes completed segments whose every record's commit ts
// lies strictly below ts — they are fully covered by a checkpoint at ts.
// Removal failures keep the segment listed (the next checkpoint retries);
// they never degrade the stream, since nothing durable is at risk. Returns
// how many segments were deleted.
func (s *stream) truncateBelow(ts uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.done[:0]
	removed := 0
	for _, seg := range s.done {
		if seg.maxTs < ts {
			if err := s.l.fs.Remove(seg.path); err != nil && !fault.NotExist(err) {
				kept = append(kept, seg)
				continue
			}
			removed++
			s.dropUnsyncedSegLocked(seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	s.done = kept
	return removed
}

// dropUnsyncedSegLocked forgets a removed segment from the SyncNone
// fsync-debt list. Caller holds s.mu.
func (s *stream) dropUnsyncedSegLocked(path string) {
	for i, u := range s.unsyncedSegs {
		if u.path == path {
			s.unsyncedSegs = append(s.unsyncedSegs[:i], s.unsyncedSegs[i+1:]...)
			return
		}
	}
}

// close flushes (unless the log was severed) and closes the file. A failed
// final flush is returned — the retained records die with the process, and
// pretending otherwise is exactly the silent loss this subsystem exists to
// prevent.
func (s *stream) close(severed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if !severed {
		err = s.flushLocked(s.l.opts.Policy != SyncNone)
		// Under SyncNone a nil flush still leaves fsync debt: bytes written
		// but never covered by fsync, and segments sealed without one. The
		// nil return stays (SyncNone callers opted out of durability), but
		// the debt is counted so a "clean" Close can never be mistaken for
		// "durable".
		debt := s.bufRecs + s.unsyncedRecs
		for _, u := range s.unsyncedSegs {
			debt += u.recs
		}
		if debt > 0 {
			s.l.closeDebtRecs.Add(uint64(debt))
		}
		if n := len(s.unsyncedSegs); n > 0 {
			s.l.closeDebtSegs.Add(uint64(n))
		}
	}
	s.closed = true
	if s.f != nil {
		if cerr := s.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal: shard %d: close: %w", s.shard, cerr)
		}
		s.f = nil
	}
	return err
}

// retained reports the stream's retained-record gauge without taking a lock
// (Stats may be polled while a stalled flush holds s.mu).
func (s *stream) retained() uint64 { return s.retainedG.Load() }

// fsyncPath reopens path and fsyncs it — covering a segment that was sealed
// without an fsync (SyncNone rotations) when a Sync barrier arrives.
func fsyncPath(fsys fault.FS, path string) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
