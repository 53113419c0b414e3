// Package server is the wire-protocol front end: it exposes a sharded,
// WAL-backed ds.Map (internal/shard + internal/wal) over TCP using the
// length-prefixed binary protocol of internal/server/wire.
//
// # Architecture
//
// Connections multiplex onto a bounded worker pool: each accepted conn gets
// a reader goroutine (frame parsing only) and a writer goroutine (response
// serialization only), while every request is executed by one of Workers
// pool goroutines, each owning its own registered shard.Thread — stm.Thread
// is single-owner, so the pool, not the connection count, bounds TM
// registration. The request queue is bounded; a saturated pool backpressures
// readers instead of buffering unboundedly.
//
// # Pipelined group commit across connections
//
// Read-only requests (search/range/size) ack as soon as they execute. An
// update's response is *staged*, not sent: a dedicated syncer goroutine
// repeatedly swaps out everything staged since its last cycle, calls
// wal.Log.Sync once, and only then releases those responses to their
// connections' writers. A commit therefore acks on the wire only after the
// fsync covering it — the WAL's no-silent-loss contract extended to the
// protocol — and one fsync amortizes over every connection's in-flight
// batch: the fsync duration is the poll cycle, and all requests executed
// during fsync N's flight ride fsync N+1 together.
//
// When Sync cannot ack (stall timeout elapsed, log severed), the staged
// responses are released with the wal.Health mapped onto a wire status —
// StatusDegraded / StatusSevered — instead of hanging the clients; the
// errors.Is-able wal.ErrSevered/ErrDegraded sentinels make that mapping
// string-free.
//
// # Failure injection
//
// Options.ConnFault threads the PR 6 fault.Injector schedule API over every
// accepted conn's read/write seam (paths "srv-1", "srv-2", ... in accept
// order), so torn reads, stalled writes and mid-request severs get the same
// deterministic inject → degrade → heal → audit treatment the disk got. A
// conn whose read side fails is *drained*, not dropped: the server finishes
// every request it fully received and flushes their responses before
// closing, so a client that keeps reading until EOF learns the definite
// outcome of everything it fully sent — the property the socket torture's
// history audit builds on.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server/wire"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/wal"
)

// AckPolicy selects when an update's response leaves the server.
type AckPolicy int

const (
	// AckSync (the default): update responses ride the group-commit
	// pipeline and ack only after the fsync covering their commit.
	AckSync AckPolicy = iota
	// AckCommit: update responses ack at the commit linearization point,
	// before durability — the latency baseline that prices the fsync.
	AckCommit
)

func (p AckPolicy) String() string {
	if p == AckCommit {
		return "commit"
	}
	return "sync"
}

// AckByName maps the flag spelling to a policy.
func AckByName(name string) (AckPolicy, bool) {
	switch name {
	case "sync", "":
		return AckSync, true
	case "commit":
		return AckCommit, true
	}
	return AckSync, false
}

// Options configures a Server. The zero value of every field selects a
// sensible default.
type Options struct {
	// Workers is the execution pool size (default 4). Each worker owns one
	// registered TM thread for the server's lifetime.
	Workers int
	// Ack selects the update ack policy (default AckSync).
	Ack AckPolicy
	// ConnFault, when set, wraps every accepted conn with the injector's
	// fault schedule under the name "srv-<n>".
	ConnFault *fault.Injector
	// DrainTimeout bounds how long a closing conn waits for its in-flight
	// requests to finish before responses are abandoned (default 10s).
	DrainTimeout time.Duration
	// ReadOnly refuses every update with StatusReadOnly before executing
	// it — the mode a follower replica serves in: reads are answered from
	// the continuously replayed state, writes belong to the leader.
	ReadOnly bool
	// Obs is the metrics registry the server publishes on: its own
	// counters, per-op latency histograms, and — when it created the
	// registry itself (Obs nil) — the log's and shards' collectors too,
	// so OpStats always answers with a complete snapshot. Pass the
	// process-wide registry to share one scrape surface with the WAL.
	Obs *obs.Registry
	// Rec, when set, receives ack-batch flight-recorder events.
	Rec *obs.Recorder
	// Trace, when set, samples requests deterministically (every Nth frame
	// per the tracer's configuration) and records per-stage spans — decode,
	// queue-wait, execute, ack-stage, sync-wait, ack-write, total — into its
	// ring. The sampled trace id is also threaded into the STM (per-attempt
	// spans) and the WAL (append/coalesce/fsync spans) via stm.SetTrace and
	// the commit observer. Nil disables tracing at zero cost.
	Trace *obs.Tracer
}

const (
	// queuePerWorker sizes the request queue (queuePerWorker × Workers). A
	// full queue backpressures connection readers.
	queuePerWorker = 4
	// outboundDepth bounds each connection's response queue.
	outboundDepth = 256
	// writeTimeout bounds one response write; a conn whose peer stops
	// reading is marked dead instead of wedging its writer.
	writeTimeout = 10 * time.Second
)

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Accepted   uint64 // connections accepted
	Requests   uint64 // requests executed
	Updates    uint64 // committed update transactions
	SyncRounds uint64 // syncer cycles that fsynced at least one staged ack
	SyncedAcks uint64 // update acks released by the group-commit pipeline
	FailedAcks uint64 // staged acks released with a degraded/severed status
}

type request struct {
	c     *srvConn
	raw   []byte
	trace uint64 // sampled trace id (0: unsampled)
	t0    int64  // frame-received ns, start of the request's server lifetime
}

type stagedAck struct {
	c        *srvConn
	resp     wire.Response
	trace    uint64
	t0       int64
	stagedNs int64 // when the ack was parked, for the ack-stage span
}

// outFrame is one framed response plus the trace context the writer needs to
// close out the ack-write and total spans.
type outFrame struct {
	b     []byte
	trace uint64
	t0    int64 // request's frame-received ns (total span start)
	enqNs int64 // response enqueue ns (ack-write span start)
}

// Server serves the wire protocol over a sharded system. Updates are logged
// through l (may be nil for a purely in-memory server; updates then ack at
// commit).
type Server struct {
	sys  *shard.System
	m    ds.Map
	l    *wal.Log
	opts Options

	ln       net.Listener
	reqq     chan request
	stopSync chan struct{}

	mu       sync.Mutex
	conns    map[*srvConn]struct{}
	draining bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	workerWG sync.WaitGroup
	syncWG   sync.WaitGroup
	stopping atomic.Bool

	ackMu     sync.Mutex
	staged    []stagedAck
	ackNotify chan struct{}

	connSeq    atomic.Uint64
	accepted   atomic.Uint64
	requests   atomic.Uint64
	updates    atomic.Uint64
	syncRounds atomic.Uint64
	syncedAcks atomic.Uint64
	failedAcks atomic.Uint64

	reg    *obs.Registry
	rec    *obs.Recorder
	opHist [maxOp + 1]*obs.Hist // per-op request latency, indexed by wire.Op
}

// maxOp is the highest wire.Op value the latency-histogram table covers.
const maxOp = wire.OpTrace

// New builds a server over an already-open system. sys must be the system
// the map m runs on (for a WAL-backed map, l.System()).
func New(sys *shard.System, m ds.Map, l *wal.Log, opts Options) *Server {
	opts.fill()
	s := &Server{
		sys: sys, m: m, l: l, opts: opts,
		reqq:      make(chan request, queuePerWorker*opts.Workers),
		stopSync:  make(chan struct{}),
		conns:     make(map[*srvConn]struct{}),
		ackNotify: make(chan struct{}, 1),
		rec:       opts.Rec,
	}
	// OpStats must always answer, so a server handed no registry builds a
	// private one and registers every layer it can see onto it; a shared
	// registry is assumed to carry the log's collectors already (OpenWith
	// registers them).
	if opts.Obs != nil {
		s.reg = opts.Obs
	} else {
		s.reg = obs.NewRegistry()
		if l != nil {
			l.RegisterObs(s.reg)
		} else {
			s.reg.Func(func(emit func(name string, v uint64)) {
				wal.RegisterShardStats(emit, sys)
			})
		}
	}
	s.reg.Func(func(emit func(name string, v uint64)) {
		st := s.Stats()
		emit("server.accepted", st.Accepted)
		emit("server.requests", st.Requests)
		emit("server.updates", st.Updates)
		emit("server.sync_rounds", st.SyncRounds)
		emit("server.synced_acks", st.SyncedAcks)
		emit("server.failed_acks", st.FailedAcks)
	})
	for op := wire.OpPing; op <= maxOp; op++ {
		s.opHist[op] = s.reg.Hist("server.lat." + op.String())
	}
	return s
}

// Registry returns the metrics registry OpStats snapshots — the one passed
// in Options.Obs, or the private one New built.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start begins serving on ln and returns immediately. The listener is owned
// by the server from here on: Shutdown/Close close it.
func (s *Server) Start(ln net.Listener) {
	s.ln = ln
	for i := 0; i < s.opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.syncWG.Add(1)
	go s.syncLoop()
	s.acceptWG.Add(1)
	go s.acceptLoop()
}

// Addr returns the listener address (valid after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:   s.accepted.Load(),
		Requests:   s.requests.Load(),
		Updates:    s.updates.Load(),
		SyncRounds: s.syncRounds.Load(),
		SyncedAcks: s.syncedAcks.Load(),
		FailedAcks: s.failedAcks.Load(),
	}
}

// Shutdown drains gracefully: stop accepting, half-close every conn's read
// side, let in-flight requests execute and their (group-committed) responses
// flush, then stop the pool and the syncer. timeout bounds the connection
// drain; conns still alive past it are force-closed (their drain then
// converges within DrainTimeout). A final Sync barrier covers everything
// executed; its error (nil on a healthy log) is returned. Idempotent — the
// second and later calls return nil immediately.
func (s *Server) Shutdown(timeout time.Duration) error {
	if !s.stopping.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	s.draining = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.acceptWG.Wait()
	for _, c := range conns {
		c.closeRead()
	}
	drained := make(chan struct{})
	go func() { s.connWG.Wait(); close(drained) }()
	if timeout > 0 {
		select {
		case <-drained:
		case <-time.After(timeout):
			s.mu.Lock()
			for c := range s.conns {
				c.nc.Close()
			}
			s.mu.Unlock()
		}
	} else {
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
	}
	<-drained
	close(s.reqq)
	s.workerWG.Wait()
	close(s.stopSync)
	s.syncWG.Wait()
	if s.l != nil && s.l.Health() == wal.Healthy {
		return s.l.Sync()
	}
	return nil
}

// Close force-closes every connection and stops the server without waiting
// for drains.
func (s *Server) Close() { s.Shutdown(0) }

// --- accept / per-conn goroutines ---

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		if s.opts.ConnFault != nil {
			nc = s.opts.ConnFault.Conn(nc, fmt.Sprintf("srv-%d", s.connSeq.Add(1)))
		}
		c := &srvConn{s: s, nc: nc, outq: make(chan outFrame, outboundDepth)}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.connWG.Add(2)
		go s.readLoop(c)
		go s.writeLoop(c)
	}
}

type srvConn struct {
	s  *Server
	nc net.Conn

	outq      chan outFrame
	outMu     sync.Mutex
	outClosed bool

	pending atomic.Int64 // requests dispatched, response not yet enqueued
	dead    atomic.Bool  // response write failed; discard further output
}

// readLoop parses frames and dispatches them to the worker pool. On any
// read error — clean EOF, torn frame, checksum mismatch, injected fault —
// it stops reading and drains: waits for every dispatched request's
// response to reach the outbound queue, then lets the writer flush and
// close. Requests the server fully received are therefore always answered,
// even when the conn is going away.
func (s *Server) readLoop(c *srvConn) {
	for {
		// A fresh payload per frame: the request owns it across the worker hop.
		raw, err := wire.ReadFrame(c.nc, nil)
		if err != nil || len(raw) < 9 {
			break // len < 9 is unparseable: no request id to answer under; sever
		}
		tid := s.opts.Trace.SampleID()
		var t0 int64
		if tid != 0 {
			t0 = time.Now().UnixNano()
		}
		c.pending.Add(1)
		s.reqq <- request{c: c, raw: raw, trace: tid, t0: t0}
	}
	deadline := time.Now().Add(s.opts.DrainTimeout)
	for c.pending.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	c.closeOut()
	s.connWG.Done()
}

func (s *Server) writeLoop(c *srvConn) {
	defer func() {
		c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connWG.Done()
	}()
	for f := range c.outq {
		if c.dead.Load() {
			continue // keep draining so finish() never blocks forever
		}
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := c.nc.Write(f.b); err != nil {
			c.dead.Store(true)
		} else if f.trace != 0 {
			end := time.Now().UnixNano()
			s.opts.Trace.Record(f.trace, obs.StageAckWrite, 0, f.enqNs, end-f.enqNs, 0, 0)
			s.opts.Trace.Record(f.trace, obs.StageTotal, 0, f.t0, end-f.t0, 0, 0)
		}
	}
}

// finish enqueues one framed response and retires its request. Responses
// after closeOut (a drain that timed out) are dropped.
func (c *srvConn) finish(f outFrame) {
	c.outMu.Lock()
	if !c.outClosed {
		c.outq <- f
	}
	c.outMu.Unlock()
	c.pending.Add(-1)
}

func (c *srvConn) closeOut() {
	c.outMu.Lock()
	if !c.outClosed {
		c.outClosed = true
		close(c.outq)
	}
	c.outMu.Unlock()
}

func (c *srvConn) closeRead() {
	if cr, ok := c.nc.(interface{ CloseRead() error }); ok {
		cr.CloseRead()
		return
	}
	c.nc.SetReadDeadline(time.Now())
}

// --- execution ---

func (s *Server) worker() {
	defer s.workerWG.Done()
	th := s.sys.Register()
	defer th.Unregister()
	var lastTrace uint64
	for req := range s.reqq {
		// Thread the sampled trace id into the STM hooks so per-attempt
		// spans and the WAL's commit observer tag their records with it.
		// Skipped entirely on the unsampled → unsampled fast path.
		if req.trace != 0 || lastTrace != 0 {
			stm.SetTrace(th, s.opts.Trace, req.trace)
			lastTrace = req.trace
		}
		s.handle(th, req)
	}
}

func (s *Server) respond(c *srvConn, resp *wire.Response, trace uint64, t0 int64) {
	f := outFrame{
		// 40 bytes hold the frame header and any fixed-size response.
		b:     wire.AppendResponseFrame(make([]byte, 0, 40), resp),
		trace: trace, t0: t0,
	}
	if trace != 0 {
		f.enqNs = time.Now().UnixNano()
	}
	c.finish(f)
}

// stage parks a committed update's response until the fsync covering its
// commit completes (or sends it straight away under AckCommit / no log).
func (s *Server) stage(c *srvConn, resp *wire.Response, trace uint64, t0 int64) {
	s.updates.Add(1)
	if s.l == nil || s.opts.Ack == AckCommit {
		s.respond(c, resp, trace, t0)
		return
	}
	var stagedNs int64
	if trace != 0 {
		stagedNs = time.Now().UnixNano()
	}
	s.ackMu.Lock()
	s.staged = append(s.staged, stagedAck{c: c, resp: *resp, trace: trace, t0: t0, stagedNs: stagedNs})
	s.ackMu.Unlock()
	select {
	case s.ackNotify <- struct{}{}:
	default:
	}
}

// failStatus classifies a refused or starved transaction by the log's
// health, so clients see degraded/severed instead of a bare retry signal.
func (s *Server) failStatus() wire.Status {
	if s.l != nil {
		switch s.l.Health() {
		case wal.Degraded:
			return wire.StatusDegraded
		case wal.Severed:
			return wire.StatusSevered
		}
	}
	return wire.StatusAborted
}

func (s *Server) handle(th stm.Thread, req request) {
	s.requests.Add(1)
	var preParseNs int64
	if req.trace != 0 {
		preParseNs = time.Now().UnixNano()
		s.opts.Trace.Record(req.trace, obs.StageQueueWait, 0, req.t0, preParseNs-req.t0, 0, 0)
	}
	r, perr := wire.ParseRequest(req.raw)
	if req.trace != 0 {
		// The decode span's a-field carries the wire request id — the hook a
		// client uses to correlate its i-th request with a trace id.
		now := time.Now().UnixNano()
		s.opts.Trace.Record(req.trace, obs.StageDecode, uint64(r.Op), preParseNs, now-preParseNs, r.ID, 0)
	}
	resp := wire.Response{ID: r.ID, Op: r.Op}
	if perr != nil {
		resp.Status = wire.StatusBadRequest
		s.respond(req.c, &resp, req.trace, req.t0)
		return
	}
	// Per-op latency covers execution up to response enqueue (for updates,
	// staging — ack-side fsync latency is the syncer's metric, not the
	// op's). ~100ns of clock reads against a wire round trip is noise.
	start := time.Now()
	defer func() {
		s.opHist[r.Op].Record(time.Since(start))
		if req.trace != 0 {
			s.opts.Trace.Record(req.trace, obs.StageExecute, uint64(r.Op),
				start.UnixNano(), time.Since(start).Nanoseconds(), r.ID, 0)
		}
	}()
	switch r.Op {
	case wire.OpPing:
		s.respond(req.c, &resp, req.trace, req.t0)
	case wire.OpSearch:
		v, found, ok := ds.Search(th, s.m, r.Key)
		if !ok {
			resp.Status = s.failStatus()
		} else {
			resp.OK, resp.Val = found, v
		}
		s.respond(req.c, &resp, req.trace, req.t0)
	case wire.OpRange:
		count, sum, ok := ds.Range(th, s.m, r.Key, r.Val)
		if !ok {
			resp.Status = s.failStatus()
		} else {
			resp.Count, resp.Sum = uint64(count), sum
		}
		s.respond(req.c, &resp, req.trace, req.t0)
	case wire.OpSize:
		n, ok := ds.Size(th, s.m)
		if !ok {
			resp.Status = s.failStatus()
		} else {
			resp.Count = uint64(n)
		}
		s.respond(req.c, &resp, req.trace, req.t0)
	case wire.OpInsert, wire.OpDelete:
		if r.Key == 0 {
			resp.Status = wire.StatusBadRequest
			s.respond(req.c, &resp, req.trace, req.t0)
			return
		}
		if st := s.refuseUpdate(); st != wire.StatusOK {
			resp.Status = st
			s.respond(req.c, &resp, req.trace, req.t0)
			return
		}
		var res, ok bool
		if r.Op == wire.OpInsert {
			res, ok = ds.Insert(th, s.m, r.Key, r.Val)
		} else {
			res, ok = ds.Delete(th, s.m, r.Key)
		}
		if !ok {
			resp.Status = s.failStatus()
			s.respond(req.c, &resp, req.trace, req.t0)
			return
		}
		resp.OK = res
		s.stage(req.c, &resp, req.trace, req.t0)
	case wire.OpBatch:
		s.handleBatch(th, req, &r, &resp)
	case wire.OpStats:
		blob, err := s.reg.JSON()
		if err != nil {
			resp.Status = wire.StatusBadRequest
		} else {
			resp.Blob = blob
		}
		s.respond(req.c, &resp, req.trace, req.t0)
	case wire.OpTrace:
		blob, err := s.opts.Trace.JSON()
		if err != nil {
			resp.Status = wire.StatusBadRequest
		} else {
			resp.Blob = blob
		}
		s.respond(req.c, &resp, req.trace, req.t0)
	default:
		resp.Status = wire.StatusBadRequest
		s.respond(req.c, &resp, req.trace, req.t0)
	}
}

// refuseUpdate rejects updates on a severed log before executing them: an
// in-memory commit whose durability is terminally gone must not look like a
// retryable failure.
func (s *Server) refuseUpdate() wire.Status {
	if s.opts.ReadOnly {
		return wire.StatusReadOnly
	}
	if s.l != nil && s.opts.Ack == AckSync && s.l.Health() == wal.Severed {
		return wire.StatusSevered
	}
	return wire.StatusOK
}

func (s *Server) handleBatch(th stm.Thread, req request, r *wire.Request, resp *wire.Response) {
	c := req.c
	if len(r.Batch) == 0 {
		s.respond(c, resp, req.trace, req.t0) // empty transaction: trivially committed
		return
	}
	home := -1
	for _, b := range r.Batch {
		if b.Key == 0 {
			resp.Status = wire.StatusBadRequest
			s.respond(c, resp, req.trace, req.t0)
			return
		}
		sh := s.sys.ShardOf(b.Key)
		if home == -1 {
			home = sh
		} else if sh != home {
			// Cross-shard update transactions do not exist (internal/shard
			// panics on them); refuse before executing anything.
			resp.Status = wire.StatusCrossShard
			s.respond(c, resp, req.trace, req.t0)
			return
		}
	}
	if st := s.refuseUpdate(); st != wire.StatusOK {
		resp.Status = st
		s.respond(c, resp, req.trace, req.t0)
		return
	}
	results := make([]bool, len(r.Batch))
	batch := r.Batch
	ok := th.Atomic(func(tx stm.Txn) {
		for i, b := range batch {
			if b.Del {
				results[i] = s.m.DeleteTx(tx, b.Key)
			} else {
				results[i] = s.m.InsertTx(tx, b.Key, b.Val)
			}
		}
	})
	if !ok {
		resp.Status = s.failStatus()
		s.respond(c, resp, req.trace, req.t0)
		return
	}
	resp.Results = results
	s.stage(c, resp, req.trace, req.t0)
}

// --- group-commit syncer ---

// syncLoop is the cross-connection group-commit pipeline: swap out
// everything staged since the last cycle, fsync once, release all of it.
func (s *Server) syncLoop() {
	defer s.syncWG.Done()
	stopping := false
	for {
		if !stopping {
			select {
			case <-s.ackNotify:
			case <-s.stopSync:
				stopping = true
			}
		}
		s.ackMu.Lock()
		batch := s.staged
		s.staged = nil
		s.ackMu.Unlock()
		if len(batch) > 0 {
			s.releaseBatch(batch)
		} else if stopping {
			return
		}
	}
}

func (s *Server) releaseBatch(batch []stagedAck) {
	var syncT0 int64
	if s.opts.Trace != nil {
		syncT0 = time.Now().UnixNano()
	}
	err := s.l.Sync()
	st := wire.StatusOK
	synced := uint64(1)
	if err != nil {
		if errors.Is(err, wal.ErrSevered) {
			st = wire.StatusSevered
		} else {
			// ErrDegraded, or any unclassified failure: the commit applied
			// in memory but the fsync did not cover it; the records remain
			// retained and a later Sync may still persist them.
			st = wire.StatusDegraded
		}
		s.failedAcks.Add(uint64(len(batch)))
		synced = 0
	} else {
		s.syncedAcks.Add(uint64(len(batch)))
	}
	s.syncRounds.Add(1)
	s.rec.Record(obs.EvAckBatch, uint64(len(batch)), synced, 0)
	var syncEnd int64
	if syncT0 != 0 {
		syncEnd = time.Now().UnixNano()
	}
	for i := range batch {
		if batch[i].trace != 0 {
			// ack-stage: parked waiting for the syncer to pick the batch up;
			// sync-wait: the shared fsync flight. b carries the batch size —
			// how many acks this fsync amortized over.
			s.opts.Trace.Record(batch[i].trace, obs.StageAckStage, 0,
				batch[i].stagedNs, syncT0-batch[i].stagedNs, batch[i].resp.ID, uint64(len(batch)))
			s.opts.Trace.Record(batch[i].trace, obs.StageSyncWait, 0,
				syncT0, syncEnd-syncT0, batch[i].resp.ID, uint64(len(batch)))
		}
		batch[i].resp.Status = st
		s.respond(batch[i].c, &batch[i].resp, batch[i].trace, batch[i].t0)
	}
}
