// Package server is the wire-protocol front end: it exposes a sharded,
// WAL-backed ds.Map (internal/shard + internal/wal) over TCP using the
// length-prefixed binary protocol of internal/server/wire.
//
// # Architecture: runs, not requests
//
// Each accepted conn has a reader goroutine that does the work and a writer
// goroutine that only delivers group-commit acks. The reader reads through a
// buffer, so one read on the socket yields every frame the peer pipelined;
// it borrows one of Workers registered TM threads (stm.Thread is
// single-owner, so that free list, not the connection count, bounds TM
// registration — and it lends in arrival order), executes inline the *run* of
// complete frames it already holds, appends every response to the conn's one
// output buffer, returns the thread, and issues one write for the run. A run
// ends when no further complete frame is buffered — a half-received frame
// never holds back the answers to the frames before it — or at a run bound,
// which also keeps a busy connection from monopolizing a thread.
//
// # Pipelined group commit across connections
//
// Reads ack in their run's write. An update's response is *staged*, not
// sent: a syncer goroutine repeatedly swaps out everything staged since its
// last cycle, calls wal.Log.Sync once, and only then appends those responses
// to their conns' output buffers and signals the writers — it never touches
// a socket, so a peer that stopped reading cannot delay another's acks. A
// commit therefore acks on the wire only after the fsync covering it — the
// WAL's no-silent-loss contract extended to the protocol — and one fsync
// amortizes over every connection's in-flight batch: all requests executed
// during fsync N's flight ride fsync N+1 together. When Sync cannot ack
// (stall timeout, severed log), the staged responses are released as
// StatusDegraded / StatusSevered instead of hanging clients.
//
// # Failure injection
//
// Options.ConnFault threads the fault.Injector schedule API over every
// accepted conn's read/write seam (paths "srv-1", "srv-2", ... in accept
// order). A conn whose read side fails is *drained*, not dropped: the server
// finishes every request it fully received and flushes their responses
// before closing, so a client that keeps reading until EOF learns the
// definite outcome of everything it fully sent — the property the socket
// torture's history audit builds on.
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

var ackNames = [...]string{AckSync: "sync", AckCommit: "commit"}

func (p AckPolicy) String() string { return ackNames[p] }

// AckByName maps the flag spelling ("" is the default) to a policy.
func AckByName(name string) (AckPolicy, bool) {
	for p, n := range ackNames {
		if name == n {
			return AckPolicy(p), true
		}
	}
	return AckSync, name == ""
}

// Options configures a Server. The zero value of every field selects a
// sensible default.
type Options struct {
	// Workers is how many requests execute at once (default 4): the TM
	// threads registered for the server's lifetime, lent one run at a time.
	Workers int
	// Ack selects the update ack policy (default AckSync).
	Ack AckPolicy
	// ConnFault, when set, wraps every accepted conn with the injector's
	// fault schedule under the name "srv-<n>".
	ConnFault *fault.Injector
	// DrainTimeout bounds how long a closing conn waits for its staged acks
	// before responses are abandoned (default 10s).
	DrainTimeout time.Duration
	// ReadOnly refuses every update with StatusReadOnly unexecuted — the
	// mode a follower replica serves in: writes belong to the leader.
	ReadOnly bool
	// Obs is the metrics registry the server publishes on: its own
	// counters, per-op latency histograms, and — when it created the
	// registry itself (Obs nil) — the log's and shards' collectors too,
	// so OpStats always answers with a complete snapshot.
	Obs *obs.Registry
	// Rec, when set, receives ack-batch flight-recorder events.
	Rec *obs.Recorder
	// Trace, when set, samples every Nth frame and records per-stage spans
	// — queue-wait, decode, execute, ack-stage, sync-wait, ack-write, total
	// — into its ring; the sampled id also reaches the STM (per-attempt
	// spans) and the WAL (append/coalesce/fsync spans). Nil: no tracing.
	Trace *obs.Tracer
}

const ( // bounds: constants, not knobs
	// A run ends after runFrames requests or runBytes of responses.
	runFrames = 64
	runBytes  = 64 << 10
	// A conn is not read from while maxStaged of its acks are parked with
	// the syncer. With the flush that ends every run — it blocks while the
	// peer is not reading — that bounds what a conn can make the server hold.
	maxStaged = 256
	// Past maxConns live conns, one is answered wire.StatusBusy — within
	// refuseTimeout, or not at all — and closed.
	maxConns      = 1024
	refuseTimeout = 100 * time.Millisecond
	// idleTimeout closes a conn that completes no frame for that long.
	idleTimeout = 5 * time.Minute
	// writeTimeout bounds one write; then the conn is marked dead.
	writeTimeout = 10 * time.Second
)

// Stats is a snapshot of the server's counters.
type Stats struct {
	Accepted   uint64 // connections accepted
	Requests   uint64 // requests executed
	Updates    uint64 // committed update transactions
	SyncRounds uint64 // syncer cycles that fsynced at least one staged ack
	SyncedAcks uint64 // update acks released by the group-commit pipeline
	FailedAcks uint64 // staged acks released with a degraded/severed status
}

// traceCtx follows one sampled request through the server (trace 0: none).
type traceCtx struct {
	trace uint64
	t0    int64 // frame-received ns, start of the request's server lifetime
	at    int64 // ns it entered its current wait: staged, or appended for the write
}

type stagedAck struct {
	c    *srvConn
	resp wire.Response
	tc   traceCtx
}

// Server serves the wire protocol over a sharded system. Updates are logged
// through l (nil for a purely in-memory server; updates then ack at commit).
type Server struct {
	sys  *shard.System
	m    ds.Map
	l    *wal.Log
	opts Options

	ln       net.Listener
	threads  chan stm.Thread // the free list: Workers registered threads
	stopSync chan struct{}
	maxConns int           // the two bounds a test has to lower to reach
	idle     time.Duration // (idleTimeout)

	mu       sync.Mutex
	conns    map[*srvConn]struct{}
	draining bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	syncWG   sync.WaitGroup

	ackMu     sync.Mutex
	staged    []stagedAck
	ackNotify chan struct{}

	accepted   atomic.Uint64
	requests   atomic.Uint64
	updates    atomic.Uint64
	syncRounds atomic.Uint64
	syncedAcks atomic.Uint64
	failedAcks atomic.Uint64

	reg    *obs.Registry
	opHist [wire.OpTrace + 1]*obs.Hist // per-op request latency, indexed by wire.Op
}

// New builds a server over an already-open system. sys must be the system
// the map m runs on (for a WAL-backed map, l.System()).
func New(sys *shard.System, m ds.Map, l *wal.Log, opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 10 * time.Second
	}
	s := &Server{
		sys: sys, m: m, l: l, opts: opts,
		threads:   make(chan stm.Thread, opts.Workers),
		stopSync:  make(chan struct{}),
		maxConns:  maxConns,
		idle:      idleTimeout,
		conns:     make(map[*srvConn]struct{}),
		ackNotify: make(chan struct{}, 1),
	}
	// OpStats must always answer, so a server handed no registry builds a
	// private one and registers every layer it can see onto it; a shared
	// one is assumed to carry the log's collectors (OpenWith registers them).
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
	for op := wire.OpPing; op <= wire.OpTrace; op++ {
		s.opHist[op] = s.reg.Hist("server.lat." + op.String())
	}
	return s
}

// Registry returns the registry OpStats snapshots: Options.Obs, or New's own.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start begins serving on ln and returns immediately. The listener is owned
// by the server from here on: Shutdown/Close close it.
func (s *Server) Start(ln net.Listener) {
	s.ln = ln
	for i := 0; i < s.opts.Workers; i++ {
		s.threads <- s.sys.Register()
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
// side, let received requests execute and their (group-committed) responses
// flush, then stop the syncer and unregister the threads. timeout bounds the
// drain; conns alive past it are force-closed (their drain then converges
// within DrainTimeout). A final Sync barrier covers everything executed; its
// error (nil on a healthy log) is returned. Later calls return nil at once.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	again := s.draining
	s.draining = true
	s.mu.Unlock()
	if again {
		return nil
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.acceptWG.Wait()
	s.mu.Lock()
	for c := range s.conns {
		c.closeRead()
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() { s.connWG.Wait(); close(drained) }()
	if timeout > 0 {
		select {
		case <-drained:
		case <-time.After(timeout):
		}
	}
	s.mu.Lock()
	for c := range s.conns { // whoever is left; nobody, after a drain in time
		c.nc.Close()
	}
	s.mu.Unlock()
	<-drained
	close(s.stopSync)
	s.syncWG.Wait()
	for len(s.threads) > 0 { // every reader has exited, so every thread is back
		(<-s.threads).Unregister()
	}
	if s.l != nil && s.l.Health() == wal.Healthy {
		return s.l.Sync()
	}
	return nil
}

// Close force-closes every connection and stops without waiting for drains.
func (s *Server) Close() { s.Shutdown(0) }

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for n := 1; ; n++ {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		if s.opts.ConnFault != nil {
			nc = s.opts.ConnFault.Conn(nc, fmt.Sprintf("srv-%d", n))
		}
		c := &srvConn{s: s, nc: nc}
		c.cond = sync.NewCond(&c.mu)
		s.mu.Lock()
		refuse := len(s.conns) >= s.maxConns
		if s.draining || refuse {
			s.mu.Unlock()
			if refuse {
				// Bounded: accepting must not wait on a peer ignoring its refusal.
				nc.SetWriteDeadline(time.Now().Add(refuseTimeout))
				nc.Write(wire.AppendResponseFrame(nil, &wire.Response{Status: wire.StatusBusy}))
			}
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

	// wmu serializes flushes — the reader's after each run, the writer's
	// after the syncer released acks — so responses reach the socket whole
	// and in order. Its holder owns spare, the buffer the last flush emptied.
	wmu   sync.Mutex
	spare []byte

	mu       sync.Mutex
	cond     *sync.Cond // staged shrank, or a flag below was set
	out      []byte     // framed responses awaiting the next flush
	spans    []traceCtx // the sampled ones among them
	staged   int        // update acks parked with the syncer
	released bool       // out holds acks from the syncer: the writer's cue to flush
	done     bool       // the reader has drained: the writer flushes what is left and closes
	dead     bool       // a write failed or the drain timed out: output is discarded

	readClosed atomic.Bool // Shutdown shut the read side: a re-armed deadline must not undo it
}

// readLoop executes the conn's runs (see the package comment). On any read
// error — EOF, torn frame, bad checksum, idle deadline, injected fault — it
// drains: answers what it executed, waits for its staged acks to come back
// from the syncer, then lets the writer close.
func (s *Server) readLoop(c *srvConn) {
	defer s.connWG.Done()
	fr := wire.NewReader(c.nc)
	var th stm.Thread // borrowed for the current run
	var traced bool   // th carries a sampled request's trace id
	var tc traceCtx
	endRun := func() {
		if traced {
			stm.SetTrace(th, s.opts.Trace, 0)
			traced = false
		}
		s.threads <- th
		th = nil
		c.flush()
	}
	for frames := 0; ; frames++ {
		if th != nil && (frames == runFrames || !fr.Buffered() || c.full()) {
			endRun()
		}
		if th == nil {
			// Between runs: one Read on the socket from here is one fill of
			// the buffer — a whole run's worth of frames, or part of one.
			frames = 0
			if !c.admit() {
				break
			}
			c.nc.SetReadDeadline(time.Now().Add(s.idle))
			if c.readClosed.Load() {
				c.closeRead() // Shutdown raced the re-arm; shut the read side again
			}
		}
		raw, err := fr.Next()
		if err != nil || len(raw) < 9 {
			break // len < 9 is unparseable: no request id to answer under; sever
		}
		if th == nil {
			if s.opts.Trace != nil {
				tc.t0 = time.Now().UnixNano() // the whole run arrived with this fill
			}
			th = <-s.threads
		}
		// Thread the sampled trace id into the STM hooks and the WAL's commit
		// observer; skipped on the unsampled → unsampled fast path.
		tc.trace = s.opts.Trace.SampleID()
		if tc.trace != 0 || traced {
			stm.SetTrace(th, s.opts.Trace, tc.trace)
			traced = tc.trace != 0
		}
		s.handle(th, c, raw, tc)
	}
	if th != nil {
		endRun()
	}
	c.mu.Lock()
	expire := time.AfterFunc(s.opts.DrainTimeout, c.fail)
	for c.staged > 0 && !c.dead {
		c.cond.Wait()
	}
	expire.Stop()
	c.done = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// admit blocks the reader while too many of its acks are staged, and reports
// whether the connection is still worth reading from.
func (c *srvConn) admit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.staged >= maxStaged && !c.dead {
		c.cond.Wait()
	}
	return !c.dead
}

// full ends a run early: its responses are worth a write of their own, or
// the staged-ack bound is reached.
func (c *srvConn) full() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.out) >= runBytes || c.staged >= maxStaged
}

// fail gives up on the connection's output.
func (c *srvConn) fail() {
	c.mu.Lock()
	c.dead = true
	c.out, c.spans = nil, nil
	c.cond.Broadcast()
	c.mu.Unlock()
}

// writeLoop delivers what the syncer appended — the syncer only signals, the
// possibly slow write happens here — and closes once the reader has drained.
func (s *Server) writeLoop(c *srvConn) {
	defer func() {
		c.fail() // anything released from here on has nowhere to go
		c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connWG.Done()
	}()
	for {
		c.mu.Lock()
		for !c.released && !c.done {
			c.cond.Wait()
		}
		last := c.done
		c.mu.Unlock()
		c.flush()
		if last {
			return
		}
	}
}

// flush writes everything in the output buffer with one Write.
func (c *srvConn) flush() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	buf, spans := c.out, c.spans
	c.out, c.spans, c.released = c.spare[:0], nil, false
	c.mu.Unlock()
	c.spare = buf
	if len(buf) == 0 {
		return
	}
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := c.nc.Write(buf); err != nil {
		c.fail()
		return
	}
	if len(spans) > 0 {
		end := time.Now().UnixNano()
		for _, tc := range spans {
			c.s.opts.Trace.Record(tc.trace, obs.StageAckWrite, 0, tc.at, end-tc.at, 0, 0)
			c.s.opts.Trace.Record(tc.trace, obs.StageTotal, 0, tc.t0, end-tc.t0, 0, 0)
		}
	}
}

func (c *srvConn) closeRead() {
	c.readClosed.Store(true)
	if cr, ok := c.nc.(interface{ CloseRead() error }); ok {
		cr.CloseRead()
		return
	}
	c.nc.SetReadDeadline(time.Now())
}

// respond appends one framed response to the output buffer; the run's flush
// — or, for an ack the syncer releases (unstage 1), the writer's — sends it.
func (c *srvConn) respond(resp *wire.Response, tc traceCtx, unstage int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.staged -= unstage
	c.released = c.released || unstage > 0
	if c.dead {
		return
	}
	c.out = wire.AppendResponseFrame(c.out, resp)
	if tc.trace != 0 {
		tc.at = time.Now().UnixNano()
		c.spans = append(c.spans, tc)
	}
}

// stage parks a committed update's response until the fsync covering its
// commit completes (or answers straight away under AckCommit / no log).
func (s *Server) stage(c *srvConn, resp *wire.Response, tc traceCtx) {
	s.updates.Add(1)
	if s.l == nil || s.opts.Ack == AckCommit {
		c.respond(resp, tc, 0)
		return
	}
	c.mu.Lock()
	c.staged++
	c.mu.Unlock()
	s.ackMu.Lock()
	s.staged = append(s.staged, stagedAck{c: c, resp: *resp, tc: tc})
	s.ackMu.Unlock()
	select {
	case s.ackNotify <- struct{}{}:
	default:
	}
}

// handle executes one request and appends (an update: stages) its response.
func (s *Server) handle(th stm.Thread, c *srvConn, raw []byte, tc traceCtx) {
	s.requests.Add(1)
	var preParseNs int64
	if tc.trace != 0 {
		// queue-wait: for a TM thread and the frames ahead in the run.
		preParseNs = time.Now().UnixNano()
		s.opts.Trace.Record(tc.trace, obs.StageQueueWait, 0, tc.t0, preParseNs-tc.t0, 0, 0)
	}
	r, perr := wire.ParseRequest(raw)
	if tc.trace != 0 {
		// The decode span's a-field carries the wire request id — the hook a
		// client uses to correlate its i-th request with a trace id.
		now := time.Now().UnixNano()
		s.opts.Trace.Record(tc.trace, obs.StageDecode, uint64(r.Op), preParseNs, now-preParseNs, r.ID, 0)
	}
	resp := wire.Response{ID: r.ID, Op: r.Op}
	if perr != nil {
		resp.Status = wire.StatusBadRequest
		c.respond(&resp, tc, 0)
		return
	}
	// Per-op latency is the execution alone (ack-side fsync latency is the
	// syncer's metric); the execute span ends where ack-stage begins.
	start := time.Now()
	update := s.execute(th, &r, &resp)
	took := time.Since(start)
	s.opHist[r.Op].Record(took)
	if tc.trace != 0 {
		tc.at = start.UnixNano() + took.Nanoseconds()
		s.opts.Trace.Record(tc.trace, obs.StageExecute, uint64(r.Op), start.UnixNano(), took.Nanoseconds(), r.ID, 0)
	}
	if update {
		s.stage(c, &resp, tc)
	} else {
		c.respond(&resp, tc, 0)
	}
}

// execute runs r and fills resp (the body travels only under StatusOK, so a
// failed op's leftovers are harmless). It reports whether r committed an
// update, whose ack must wait for its fsync.
func (s *Server) execute(th stm.Thread, r *wire.Request, resp *wire.Response) (update bool) {
	ok, n, err := true, 0, error(nil)
	switch r.Op {
	case wire.OpPing:
	case wire.OpSearch:
		resp.Val, resp.OK, ok = ds.Search(th, s.m, r.Key)
	case wire.OpRange:
		n, resp.Sum, ok = ds.Range(th, s.m, r.Key, r.Val)
	case wire.OpSize:
		n, ok = ds.Size(th, s.m)
	case wire.OpInsert, wire.OpDelete:
		if r.Key == 0 {
			resp.Status = wire.StatusBadRequest
		} else if resp.Status = s.refuseUpdate(); resp.Status == wire.StatusOK {
			if r.Op == wire.OpInsert {
				resp.OK, ok = ds.Insert(th, s.m, r.Key, r.Val)
			} else {
				resp.OK, ok = ds.Delete(th, s.m, r.Key)
			}
			update = ok
		}
	case wire.OpBatch:
		if resp.Status = s.refuseBatch(r.Batch); resp.Status == wire.StatusOK && len(r.Batch) > 0 {
			// Captured instead of r and resp, which would move to the heap
			// on every request of every kind.
			batch, results := r.Batch, make([]bool, len(r.Batch))
			ok = th.Atomic(func(tx stm.Txn) {
				for i, b := range batch {
					if b.Del {
						results[i] = s.m.DeleteTx(tx, b.Key)
					} else {
						results[i] = s.m.InsertTx(tx, b.Key, b.Val)
					}
				}
			})
			resp.Results, update = results, ok
		}
	case wire.OpStats:
		resp.Blob, err = s.reg.JSON()
	case wire.OpTrace:
		resp.Blob, err = s.opts.Trace.JSON()
	default:
		resp.Status = wire.StatusBadRequest
	}
	resp.Count = uint64(n)
	if err != nil {
		resp.Status = wire.StatusBadRequest
	}
	if !ok {
		// Starved or refused: classified by the log's health, so clients
		// see degraded/severed instead of a bare retry signal.
		resp.Status = wire.StatusAborted
		if s.l != nil {
			resp.Status = healthStatus[s.l.Health()]
		}
	}
	return update
}

// healthStatus is the status of a transaction that did not commit.
var healthStatus = [...]wire.Status{
	wal.Healthy: wire.StatusAborted, wal.Degraded: wire.StatusDegraded, wal.Severed: wire.StatusSevered,
}

// refuseUpdate rejects updates on a severed log unexecuted: an in-memory
// commit whose durability is terminally gone must not look retryable.
func (s *Server) refuseUpdate() wire.Status {
	if s.opts.ReadOnly {
		return wire.StatusReadOnly
	}
	if s.l != nil && s.opts.Ack == AckSync && s.l.Health() == wal.Severed {
		return wire.StatusSevered
	}
	return wire.StatusOK
}

// refuseBatch is refuseUpdate after the batch's own checks. Cross-shard
// update transactions do not exist (internal/shard panics on them), so a
// mixed batch is refused unexecuted; an empty one is trivially committed.
func (s *Server) refuseBatch(batch []wire.BatchOp) wire.Status {
	for _, b := range batch {
		if b.Key == 0 {
			return wire.StatusBadRequest
		}
		if s.sys.ShardOf(b.Key) != s.sys.ShardOf(batch[0].Key) {
			return wire.StatusCrossShard
		}
	}
	if len(batch) == 0 {
		return wire.StatusOK
	}
	return s.refuseUpdate()
}

// syncLoop is the group-commit pipeline: swap out everything staged since
// the last cycle, fsync once, release all of it.
func (s *Server) syncLoop() {
	defer s.syncWG.Done()
	stopping := false
	var spare []stagedAck // the batch before this one, emptied: staging reuses its array
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
		s.staged = spare[:0]
		s.ackMu.Unlock()
		if len(batch) > 0 {
			s.releaseBatch(batch)
		} else if stopping {
			return
		}
		clear(batch) // drop the conns and result slices it points at
		spare = batch
	}
}

func (s *Server) releaseBatch(batch []stagedAck) {
	var syncT0, syncEnd int64
	if s.opts.Trace != nil {
		syncT0 = time.Now().UnixNano()
	}
	err := s.l.Sync()
	st := wire.StatusOK
	synced := uint64(1)
	if err != nil {
		// ErrDegraded, or any unclassified failure: the commit applied in
		// memory but no fsync covers it; a later Sync may still persist it.
		st = wire.StatusDegraded
		if errors.Is(err, wal.ErrSevered) {
			st = wire.StatusSevered
		}
		s.failedAcks.Add(uint64(len(batch)))
		synced = 0
	} else {
		s.syncedAcks.Add(uint64(len(batch)))
	}
	s.syncRounds.Add(1)
	s.opts.Rec.Record(obs.EvAckBatch, uint64(len(batch)), synced, 0)
	if syncT0 != 0 {
		syncEnd = time.Now().UnixNano()
	}
	for i := range batch {
		a := &batch[i]
		if a.tc.trace != 0 {
			// ack-stage: parked until the syncer picked the batch up;
			// sync-wait: the shared fsync flight. b is the batch size.
			s.opts.Trace.Record(a.tc.trace, obs.StageAckStage, 0,
				a.tc.at, syncT0-a.tc.at, a.resp.ID, uint64(len(batch)))
			s.opts.Trace.Record(a.tc.trace, obs.StageSyncWait, 0,
				syncT0, syncEnd-syncT0, a.resp.ID, uint64(len(batch)))
		}
		a.resp.Status = st
		a.c.respond(&a.resp, a.tc, 1)
	}
	// Only now wake the writers, each for its whole share of the batch (a
	// Broadcast nobody waits on is free).
	for i := range batch {
		batch[i].c.cond.Broadcast()
	}
}
