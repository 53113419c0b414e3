package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/ds"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Layer micro-benchmarks. Each workload's traced run measures the layers that
// workload exercises: every number here is single-threaded (the ladder's
// deltas are a layer's self time only when nothing else contends), taken
// reps times for e.rung each, median reported.
const reps = 3

// nsPerOp runs op back to back for d in quanta of quantumOps calls and
// returns the fast decile of the quanta's mean time of one call.
func nsPerOp(d time.Duration, op func()) float64 {
	var quanta []float64
	for t0 := time.Now(); time.Since(t0) < d; {
		q0 := nowNs()
		for i := 0; i < quantumOps; i++ {
			op()
		}
		quanta = append(quanta, float64(nowNs()-q0)/quantumOps)
	}
	return fastDecile(quanta)
}

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// p50us is the median of nanosecond samples, in microseconds.
func p50us(samples []float64) float64 {
	return quantileOf(samples, 0.5) / 1e3
}

// replay returns an op that executes a stream cyclically on (th, m).
func replay(th stm.Thread, m ds.Map, stream []uint64) func() {
	d := newDriver(stream)
	d.th, d.m = th, m
	return func() { d.step() }
}

// --- mvstm, ds.abtree, dctl: point-mix ---

const rawWords = 1 << 20

func layersPointMix(e *env, out map[string]float64) ([]span, error) {
	// Rung 0: raw transactions over 8 words of a 1 M-word array.
	sys := bench.NewTM("multiverse", inprocLockTab)
	words := make([]stm.Word, rawWords)
	th := sys.Register()
	rng := workload.NewRng(e.seed)
	var base int
	update := func(tx stm.Txn) {
		for i := 0; i < 8; i++ {
			w := &words[base+i]
			tx.Write(w, tx.Read(w)+1)
		}
	}
	var sink uint64
	read := func(tx stm.Txn) {
		for i := 0; i < 8; i++ {
			sink += tx.Read(&words[base+i])
		}
	}
	out["mvstm.atomic_ns"] = medianOf(reps, func() float64 {
		return nsPerOp(e.rung, func() { base = rng.Intn(rawWords - 8); th.Atomic(update) })
	})
	out["mvstm.readonly_ns"] = medianOf(reps, func() float64 {
		return nsPerOp(e.rung, func() { base = rng.Intn(rawWords - 8); th.ReadOnly(read) })
	})
	th.Unregister()
	sys.Close()

	// The data structure alone, one thread, same tree as the workload.
	w, err := setupInproc(e, "multiverse", false)
	if err != nil {
		return nil, err
	}
	dr := w.drivers[0]
	searches := genStream(e.seed, 7, 1<<16, w.keyRange, searchOnly)
	updates := genStream(e.seed, 8, 1<<16, w.keyRange, updaterMix)
	out["ds.abtree.search_ns"] = medianOf(reps, func() float64 { return nsPerOp(e.rung, replay(dr.th, dr.m, searches)) })
	out["ds.abtree.update_ns"] = medianOf(reps, func() float64 { return nsPerOp(e.rung, replay(dr.th, dr.m, updates)) })

	// What the ds.Insert/Delete/Search convenience wrappers allocate: the
	// workload's mix through the wrappers, minus the same mix through one
	// reused closure.
	mixed := dr.stream
	viaWrappers := replay(dr.th, dr.m, mixed)
	var key uint64
	var kind workload.Op
	reused := func(tx stm.Txn) {
		switch kind {
		case workload.OpInsert:
			sink += b2u(dr.m.InsertTx(tx, key, key))
		case workload.OpDelete:
			sink += b2u(dr.m.DeleteTx(tx, key))
		default:
			v, _ := dr.m.SearchTx(tx, key)
			sink += v
		}
	}
	pos := 0
	viaClosure := func() {
		op := mixed[pos]
		pos = (pos + 1) % len(mixed)
		kind, key = workload.Op(op>>opShift), op&keyMask
		if kind == workload.OpSearch {
			dr.th.ReadOnly(reused)
		} else {
			dr.th.Atomic(reused)
		}
	}
	allocsPerOp := func(op func()) float64 {
		const n = 1 << 16
		a0 := readRuntime().allocs
		for i := 0; i < n; i++ {
			op()
		}
		return float64(readRuntime().allocs-a0) / n
	}
	out["ds.wrapper_allocs_per_op"] = allocsPerOp(viaWrappers) - allocsPerOp(viaClosure)
	_ = sink
	// The replays above changed the tree without the drivers' ledgers, so
	// this instance is closed without its oracle.
	w.close()

	// The paper's first claim as a same-run ratio: multiverse's common case
	// against DCTL's, one trial each, back to back.
	mv, err := referenceTrial(e, "multiverse", false)
	if err != nil {
		return nil, err
	}
	dc, err := referenceTrial(e, "dctl", false)
	if err != nil {
		return nil, err
	}
	out["dctl.point_ops_per_cpu_s"] = dc.ops() / dc.cpu
	out["mvstm.point_vs_dctl"] = (mv.ops() / mv.cpu) / (dc.ops() / dc.cpu)
	return nil, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// referenceTrial runs one warmed-up trial of an in-process workload on the
// named TM, with its oracle.
func referenceTrial(e *env, tm string, longRead bool) (measured, error) {
	w, err := setupInproc(e, tm, longRead)
	if err != nil {
		return measured{}, err
	}
	if _, err := w.trial(2 * e.rung); err != nil {
		w.close()
		return measured{}, err
	}
	m, _, err := measureTrial(w, 8*e.rung, memProbe())
	if err != nil {
		w.close()
		return m, err
	}
	_, err = w.finish()
	return m, err
}

// --- mvstm, ds.abtree, dctl: long-read ---

func layersLongRead(e *env, out map[string]float64) ([]span, error) {
	// A 10 000-word read-only transaction beside one writer.
	sys := bench.NewTM("multiverse", inprocLockTab)
	words := make([]stm.Word, rawWords)
	span := 10_000
	if e.quick {
		span = 1000
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := sys.Register()
		defer th.Unregister()
		rng := workload.NewRng(e.seed + 1)
		for !stop.Load() {
			base := rng.Intn(rawWords - 8)
			th.Atomic(func(tx stm.Txn) {
				for i := 0; i < 8; i++ {
					tx.Write(&words[base+i], tx.Read(&words[base+i])+1)
				}
			})
		}
	}()
	th := sys.Register()
	rng := workload.NewRng(e.seed)
	var sink uint64
	out["mvstm.long_read_ns_per_word"] = medianOf(reps, func() float64 {
		reads, t0 := 0, time.Now()
		for time.Since(t0) < e.rung {
			base := rng.Intn(rawWords - span)
			if th.ReadOnly(func(tx stm.Txn) {
				for i := 0; i < span; i++ {
					sink += tx.Read(&words[base+i])
				}
			}) {
				reads++
			}
		}
		if reads == 0 {
			return 0
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reads*span)
	})
	_ = sink
	stop.Store(true)
	wg.Wait()
	th.Unregister()
	sys.Close()

	// The tree's range scan alone: no updater, one thread.
	w, err := setupInproc(e, longReadTM, true)
	if err != nil {
		return nil, err
	}
	dr := w.drivers[0]
	out["ds.abtree.range_ns_per_key"] = medianOf(reps, func() float64 {
		keys, t0 := 0, time.Now()
		for time.Since(t0) < e.rung {
			lo := w.rqLo[w.rqPos]
			w.rqPos = (w.rqPos + 1) % len(w.rqLo)
			count, _, _ := ds.Range(dr.th, dr.m, lo, lo+w.span()-1)
			keys += count
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(keys)
	})
	if _, err := w.finish(); err != nil {
		return nil, err
	}

	// The paper's second claim as a same-run ratio.
	mv, err := referenceTrial(e, "multiverse", true)
	if err != nil {
		return nil, err
	}
	dc, err := referenceTrial(e, "dctl", true)
	if err != nil {
		return nil, err
	}
	out["mvstm.adaptive_rq_per_s"] = float64(mv.reads) / mv.wall.Seconds()
	out["mvstm.adaptive_updater_ops_per_s"] = float64(mv.updates) / mv.wall.Seconds()
	out["dctl.rq_per_s"] = float64(dc.reads) / dc.wall.Seconds()
	out["dctl.updater_ops_per_s"] = float64(dc.updates) / dc.wall.Seconds()
	// A baseline that commits no range query in the window is credited with
	// one, so the ratio stays finite and errs against multiverse.
	dcReads := dc.reads
	if dcReads == 0 {
		dcReads = 1
	}
	out["mvstm.rq_vs_dctl"] = (float64(mv.reads) / mv.wall.Seconds()) / (float64(dcReads) / dc.wall.Seconds())
	return nil, nil
}

// --- the ladder: ds.hashmap, shard, wal: durable-update ---

// rung is one step of the ladder: a map and a thread to drive it with.
type rung struct {
	name  string
	th    stm.Thread
	m     ds.Map
	close func()
	ns    []float64
}

func layersDurable(e *env, out map[string]float64) ([]span, error) {
	keyRange, fill := walSizes(e)
	stream := genStream(e.seed, 0, streamLn, keyRange, durableMix)
	var rungs []*rung
	closeAll := func() {
		for _, r := range rungs {
			r.close()
		}
	}
	add := func(name string, sys stm.System, m ds.Map, closeFn func()) error {
		th := sys.Register()
		r := &rung{name: name, th: th, m: m, close: func() { th.Unregister(); closeFn() }}
		rungs = append(rungs, r)
		_, err := prefill(th, m, e.seed, fill, keyRange)
		return err
	}
	addWAL := func(name string, policy wal.SyncPolicy, interval time.Duration) (*leader, error) {
		ld, err := openLeader(e, policy, interval, nil)
		if err != nil {
			return nil, err
		}
		th := ld.sys().Register()
		rungs = append(rungs, &rung{name: name, th: th, m: ld.m,
			close: func() { th.Unregister(); ld.l.Close(); os.RemoveAll(ld.dir) }})
		return ld, nil
	}
	defer closeAll()

	// The same structure and table sizes wal.OpenWith builds per shard.
	bare := bench.NewTM("multiverse", 1<<16)
	if err := add("ds", bare, bench.NewDS("hashmap", walKeyRange), bare.Close); err != nil {
		return nil, err
	}
	for _, k := range []int{1, 2} {
		sys := bench.NewShardedTM("multiverse", k, k<<16)
		if err := add(fmt.Sprintf("shard%d", k), sys, bench.NewShardedDS(sys, "hashmap", walKeyRange), sys.Close); err != nil {
			return nil, err
		}
	}
	if _, err := addWAL("wal-none", wal.SyncNone, walGroupInterval); err != nil {
		return nil, err
	}
	group, err := addWAL("wal-group", wal.SyncGroup, walGroupInterval)
	if err != nil {
		return nil, err
	}
	// The group-commit map once more, as an independent instance: what the
	// rungs below it must add up to.
	if _, err := addWAL("wal-direct", wal.SyncGroup, walGroupInterval); err != nil {
		return nil, err
	}
	// And at the log's default 2 ms interval, which the workloads avoid.
	if _, err := addWAL("wal-default", wal.SyncGroup, 0); err != nil {
		return nil, err
	}
	// Interleave the repetitions so drift hits every rung alike.
	for i := 0; i < reps; i++ {
		for _, r := range rungs {
			r.ns = append(r.ns, nsPerOp(e.rung, replay(r.th, r.m, stream)))
		}
	}
	ns := map[string]float64{}
	for _, r := range rungs {
		ns[r.name] = median(r.ns)
	}
	out["ds.hashmap.op_ns"] = ns["ds"]
	out["shard.route_delta_ns"] = ns["shard1"] - ns["ds"]
	out["shard.k2_delta_ns"] = ns["shard2"] - ns["shard1"]
	out["wal.append_delta_ns"] = ns["wal-none"] - ns["shard2"]
	out["wal.group_delta_ns"] = ns["wal-group"] - ns["wal-none"]
	out["wal.direct_op_ns"] = ns["wal-direct"]
	out["wal.default_interval_delta_ns"] = ns["wal-default"] - ns["wal-group"]

	ds0, sh2 := rungs[0], rungs[2]
	searches := genStream(e.seed, 7, 1<<16, keyRange, searchOnly)
	updates := genStream(e.seed, 8, 1<<16, keyRange, updaterMix)
	out["ds.hashmap.search_ns"] = medianOf(reps, func() float64 { return nsPerOp(e.rung, replay(ds0.th, ds0.m, searches)) })
	out["ds.hashmap.update_ns"] = medianOf(reps, func() float64 { return nsPerOp(e.rung, replay(ds0.th, ds0.m, updates)) })

	// A range query spanning both shards: one clock freeze, two pinned scans.
	var cross []float64
	for i := 0; i < 32; i++ {
		t0 := nowNs()
		count, sum, ok := ds.Range(sh2.th, sh2.m, 1, keyRange)
		cross = append(cross, float64(nowNs()-t0))
		if !ok {
			return nil, fmt.Errorf("cross-shard range starved")
		}
		if err := checkRange(1, keyRange, count, sum); err != nil {
			return nil, err
		}
	}
	out["shard.cross_range_us"] = p50us(cross)

	// Sync after a small batch of commits, against a raw 4 KiB write+fsync
	// in the same directory: what the log adds to what the disk gives.
	step := replay(rungs[4].th, group.m, updates)
	var syncs, probes []float64
	probe, err := os.OpenFile(filepath.Join(group.dir, "fsync-probe"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	block := make([]byte, 4096)
	for i := 0; i < 48; i++ {
		for k := 0; k < 64; k++ {
			step()
		}
		t0 := nowNs()
		if err := group.l.Sync(); err != nil {
			return nil, err
		}
		t1 := nowNs()
		if _, err := probe.Write(block); err != nil {
			return nil, err
		}
		if err := probe.Sync(); err != nil {
			return nil, err
		}
		syncs, probes = append(syncs, float64(t1-t0)), append(probes, float64(nowNs()-t1))
	}
	out["wal.sync_call_us_p50"] = p50us(syncs)
	out["wal.fsync_probe_us_p50"] = p50us(probes)

	recs, logged, err := detCounts(e)
	if err != nil {
		return nil, err
	}
	out["wal.det_records"], out["wal.det_bytes"] = float64(recs), float64(logged)

	return nestedReplay(e, stream, fill, keyRange, out)
}

// detCounts is the seed discipline's exact count: one thread replaying a
// fixed number of ops of durable-update's stream on a fresh log must append
// exactly the same records and bytes every time. Counts, not speeds.
func detCounts(e *env) (records, logged uint64, err error) {
	ld, err := openLeader(e, wal.SyncGroup, walGroupInterval, nil)
	if err != nil {
		return 0, 0, err
	}
	defer func() { ld.l.Close(); os.RemoveAll(ld.dir) }()
	keyRange, _ := walSizes(e)
	th := ld.sys().Register()
	defer th.Unregister()
	before := ld.l.Stats()
	step := replay(th, ld.m, genStream(e.seed, 0, 20_000, keyRange, durableMix))
	for i := 0; i < 20_000; i++ {
		step()
	}
	if err := ld.l.Sync(); err != nil {
		return 0, 0, err
	}
	after := ld.l.Stats()
	return after.Records - before.Records, after.BytesAppended - before.BytesAppended, nil
}

// nestedReplay is where op -> shard.Map.* -> ds.* nest for real: shard.NewMap
// takes a factory, so the benchmark injects its own span-recording ds.Map
// under the sharded map and wraps the sharded map and thread too. Everywhere
// else the rung deltas stand in for self time.
func nestedReplay(e *env, stream []uint64, fill int, keyRange uint64, out map[string]float64) ([]span, error) {
	t := newTctx(e.wlIdx, 8, 64)
	sys := bench.NewShardedTM("multiverse", walShards, walShards<<16)
	defer sys.Close()
	m := shard.NewMap(sys, func(int) ds.Map {
		return tracedMap{bench.NewDS("hashmap", walKeyRange/walShards), t, "ds"}
	})
	raw := sys.Register()
	defer raw.Unregister()
	if _, err := prefill(raw, m, e.seed, fill, keyRange); err != nil {
		return nil, err
	}
	d := newDriver(stream)
	d.th, d.m, d.t = tracedThread{raw, t, "shard"}, tracedMap{m, t, "shard"}, t
	for t0 := time.Now(); time.Since(t0) < 2*e.rung; {
		d.step()
	}
	self := selfTimes(t.spans())
	out["trace.self_ns.shard"] = self["shard"]
	out["trace.self_ns.ds"] = self["ds"]
	return t.spans(), nil
}

// --- wire, server: wire-sync ---

// pipeListener is an in-memory net.Listener: Dial hands the server one end of
// a net.Pipe, so a round trip crosses the protocol and the server's
// goroutines but never the kernel.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) Dial() (net.Conn, error) {
	ours, theirs := net.Pipe()
	select {
	case l.conns <- theirs:
		return ours, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func layersWire(e *env, out map[string]float64) ([]span, error) {
	// Codec rungs: one search request and its response.
	req := wire.Request{ID: 42, Op: wire.OpSearch, Key: 12345}
	resp := wire.Response{ID: 42, Op: wire.OpSearch, Status: wire.StatusOK, OK: true, Val: 12345}
	reqBytes, respBytes := wire.AppendRequest(nil, &req), wire.AppendResponse(nil, &resp)
	var buf []byte
	var perr error
	out["wire.append_request_ns"] = medianOf(reps, func() float64 {
		return nsPerOp(e.rung/4, func() { buf = wire.AppendRequest(buf[:0], &req) })
	})
	out["wire.parse_request_ns"] = medianOf(reps, func() float64 {
		return nsPerOp(e.rung/4, func() { _, perr = wire.ParseRequest(reqBytes) })
	})
	out["wire.append_response_ns"] = medianOf(reps, func() float64 {
		return nsPerOp(e.rung/4, func() { buf = wire.AppendResponse(buf[:0], &resp) })
	})
	out["wire.parse_response_ns"] = medianOf(reps, func() float64 {
		return nsPerOp(e.rung/4, func() { _, perr = wire.ParseResponse(respBytes) })
	})
	if perr != nil {
		return nil, perr
	}
	// Allocations per ReadFrame, reusing the buffer as client and server do.
	const frames = 1 << 12
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = wire.AppendFrame(stream, reqBytes)
	}
	rd := bytes.NewReader(stream)
	var fbuf []byte
	a0 := readRuntime().allocs
	for i := 0; i < frames; i++ {
		payload, err := wire.ReadFrame(rd, fbuf)
		if err != nil {
			return nil, err
		}
		fbuf = payload[:0]
	}
	out["wire.read_frame_allocs"] = float64(readRuntime().allocs-a0) / frames

	// Round trips at depth 1 on one connection, first without the kernel,
	// then over loopback TCP: the difference is the kernel's share.
	ld, err := openLeader(e, wal.SyncGroup, walGroupInterval, nil)
	if err != nil {
		return nil, err
	}
	defer func() { ld.l.Close(); os.RemoveAll(ld.dir) }()
	keyRange, _ := walSizes(e)
	keys := genStream(e.seed, 9, 1<<12, keyRange, searchOnly)
	rtt := func(dial func(*server.Server) (net.Conn, error), ln net.Listener) (float64, error) {
		srv := server.New(ld.sys(), ld.m, ld.l, server.Options{Workers: 2, Ack: server.AckSync})
		srv.Start(ln)
		defer srv.Shutdown(5 * time.Second)
		conn, err := dial(srv)
		if err != nil {
			return 0, err
		}
		defer conn.Close()
		var lat []float64
		var pbuf, fbuf, rbuf []byte
		deadline := time.Now().Add(4 * e.rung)
		for i := 0; time.Now().Before(deadline); i++ {
			r := wire.Request{ID: uint64(i + 1), Op: wire.OpSearch, Key: keys[i%len(keys)] & keyMask}
			t0 := nowNs()
			pbuf = wire.AppendRequest(pbuf[:0], &r)
			fbuf = wire.AppendFrame(fbuf[:0], pbuf)
			if _, err := conn.Write(fbuf); err != nil {
				return 0, err
			}
			payload, err := wire.ReadFrame(conn, rbuf)
			if err != nil {
				return 0, err
			}
			rbuf = payload[:0]
			got, err := wire.ParseResponse(payload)
			if err != nil {
				return 0, err
			}
			if got.ID != r.ID || got.Status != wire.StatusOK {
				return 0, fmt.Errorf("round trip %d: got id %d status %v", r.ID, got.ID, got.Status)
			}
			lat = append(lat, float64(nowNs()-t0))
		}
		return p50us(lat), nil
	}
	pl := newPipeListener()
	if out["server.pipe_rtt_us_p50"], err = rtt(func(*server.Server) (net.Conn, error) { return pl.Dial() }, pl); err != nil {
		return nil, fmt.Errorf("pipe round trips: %w", err)
	}
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if out["server.tcp_rtt_us_p50"], err = rtt(func(s *server.Server) (net.Conn, error) { return net.Dial("tcp", s.Addr().String()) }, tl); err != nil {
		return nil, fmt.Errorf("tcp round trips: %w", err)
	}
	return nil, nil
}

// --- replica: replica-follow ---

func layersReplica(e *env, out map[string]float64) ([]span, error) {
	// The same leader with nobody following, to read beside the workload's
	// replica.leader_ops_per_s.
	ld, err := openLeader(e, wal.SyncGroup, walGroupInterval, nil)
	if err != nil {
		return nil, err
	}
	defer func() { ld.l.Close(); os.RemoveAll(ld.dir) }()
	dr := ld.newDriver(e, 0, updaterMix)
	defer dr.th.Unregister()
	run := func(d time.Duration) float64 {
		dr.resetTrial()
		wall := runDrivers(1, d, func(_ int, stop *atomic.Bool) { dr.run(stop) })
		return float64(dr.updates) / wall.Seconds()
	}
	run(2 * e.rung)
	out["replica.leader_alone_ops_per_s"] = run(8 * e.rung)
	return nil, ld.l.Sync()
}
