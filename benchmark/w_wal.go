package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The three durable workloads share one leader: a 2-shard hashmap over
// multiverse behind a group-committed WAL, prefilled to half its key range.
const (
	walKeyRange = 1 << 16
	walPrefill  = 1 << 15
	walShards   = 2
	// walGroupInterval is the flush policy of every durable workload: group
	// commit every 10 ms. At the 2 ms default the flusher holds a stream's
	// lock through each fsync for L/2ms of the time, L being the virtual
	// disk's fsync latency; L wandered between 0.2 and 1.5 ms while this
	// benchmark was built, and durable-update's throughput with it by 3x
	// between identical runs. wal.default_interval_delta_ns prices the
	// default beside this setting.
	walGroupInterval = 10 * time.Millisecond
)

var durableMix = workload.Mix{InsertPct: 0.25, DeletePct: 0.25}

// leader is an open durable map with the ledger of its prefill.
type leader struct {
	dir string
	m   ds.Map
	l   *wal.Log
	pre ledger
}

func (ld *leader) sys() *shard.System { return ld.l.System() }

func walSizes(e *env) (keyRange uint64, fill int) {
	if e.quick {
		return 1 << 12, 1 << 11
	}
	return walKeyRange, walPrefill
}

// openLeader opens a fresh WAL directory with the given policy and flush
// interval and prefills it. tr is the server's tracer on the traced wire-sync
// pass, nil otherwise.
func openLeader(e *env, policy wal.SyncPolicy, interval time.Duration, tr *obs.Tracer) (*leader, error) {
	dir, err := e.tempDir("wal-*")
	if err != nil {
		return nil, err
	}
	m, l, err := wal.OpenWith(wal.Options{Dir: dir, Backend: "multiverse", Shards: walShards,
		DS: "hashmap", Capacity: walKeyRange, Policy: policy, GroupInterval: interval, Trace: tr})
	if err != nil {
		return nil, err
	}
	ld := &leader{dir: dir, m: m, l: l}
	keyRange, fill := walSizes(e)
	th := ld.sys().Register()
	ld.pre, err = prefill(th, m, e.seed, fill, keyRange)
	th.Unregister()
	if err == nil {
		err = l.Sync()
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	return ld, nil
}

// newDriver registers one in-process driver on the leader's system.
func (ld *leader) newDriver(e *env, worker int, mix workload.Mix) *driver {
	keyRange, _ := walSizes(e)
	d := newDriver(genStream(e.seed, worker, streamLn, keyRange, mix))
	if e.traced {
		d.t = newTctx(e.wlIdx, worker, 64)
	}
	d.th = traceThread(ld.sys().Register(), d.t, "shard")
	d.m = traceMap(ld.m, d.t, "wal")
	return d
}

// walWindow is the log's and the sharded system's counters at one instant.
type walWindow struct {
	st      wal.Stats
	freezes uint64
}

func (ld *leader) window() walWindow { return walWindow{ld.l.Stats(), ld.sys().Freezes()} }

// walLayer turns a window of log counters into per-layer metrics. updates is
// the number of update operations the workload issued in the window.
func walLayer(before, after walWindow, updates uint64, wall time.Duration, out map[string]float64) {
	recs := float64(after.st.Records - before.st.Records)
	bytes := float64(after.st.BytesAppended - before.st.BytesAppended)
	fsyncs := float64(after.st.Fsyncs - before.st.Fsyncs)
	out["wal.fsyncs_per_s"] = fsyncs / wall.Seconds()
	out["shard.freezes_per_s"] = float64(after.freezes-before.freezes) / wall.Seconds()
	if fsyncs > 0 {
		out["wal.records_per_fsync"] = recs / fsyncs
	}
	if recs > 0 {
		out["wal.bytes_per_record"] = bytes / recs
	}
	if updates > 0 {
		out["wal.log_bytes_per_op"] = bytes / float64(updates)
	}
}

// recoverAndCompare is the durability oracle: sever the log as a process
// death would, reopen the directory through ordinary recovery, and require
// the recovered state to equal what the live map held after its last Sync.
// It returns the time from wal.Open to the first successful read.
func (ld *leader) recoverAndCompare(want ledger, keyRange uint64) (time.Duration, error) {
	th := ld.sys().Register()
	err := checkLedger(th, ld.m, keyRange, want)
	var live []ds.KV
	if err == nil {
		live, err = exportSorted(th, ld.m)
	}
	th.Unregister()
	ld.l.Crash()
	ld.l.Close()
	defer os.RemoveAll(ld.dir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	m2, l2, err := wal.Open(ld.dir, "multiverse", walShards)
	if err != nil {
		return 0, fmt.Errorf("oracle: recovery: %w", err)
	}
	defer l2.Close()
	th2 := l2.System().Register()
	defer th2.Unregister()
	if _, _, ok := ds.Search(th2, m2, 1); !ok {
		return 0, fmt.Errorf("oracle: first read after recovery starved")
	}
	took := time.Since(t0)
	recovered, err := exportSorted(th2, m2)
	if err != nil {
		return 0, err
	}
	if err := samePairs(live, recovered); err != nil {
		return 0, fmt.Errorf("oracle: recovered state differs from state at last Sync: %w", err)
	}
	return took, nil
}

// durable is the durable-update workload.
type durable struct {
	e       *env
	ld      *leader
	drivers [2]*driver
	coord   *tctx // spans of the Checkpoint and Sync calls
}

func setupDurable(e *env) (instance, error) {
	ld, err := openLeader(e, wal.SyncGroup, walGroupInterval, nil)
	if err != nil {
		return nil, err
	}
	w := &durable{e: e, ld: ld}
	for i := range w.drivers {
		w.drivers[i] = ld.newDriver(e, i, durableMix)
	}
	if e.traced {
		w.coord = newTctx(e.wlIdx, len(w.drivers), 1)
	}
	return w, nil
}

func (w *durable) trial(d time.Duration) (trialResult, error) {
	res := trialResult{layer: map[string]float64{}}
	for _, dr := range w.drivers {
		dr.resetTrial()
	}
	before, tmBefore := w.ld.window(), w.ld.sys().Stats()
	// One online checkpoint at mid-trial, beside the drivers.
	type ckpt struct {
		took time.Duration
		err  error
	}
	ckptDone := make(chan ckpt, 1)
	timer := time.AfterFunc(d/2, func() {
		c0 := time.Now()
		_, err := w.ld.l.Checkpoint()
		ckptDone <- ckpt{time.Since(c0), err}
	})
	t0 := time.Now()
	runDrivers(len(w.drivers), d, func(i int, stop *atomic.Bool) {
		w.drivers[i].run(stop)
	})
	timer.Stop() // cannot fire any more: d has passed
	ck := <-ckptDone
	var err error
	w.coord.beginOp("trial-end")
	w.coord.call("wal", "Sync", func() { err = w.ld.l.Sync() })
	w.coord.endOp()
	res.wall = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("sync at trial end: %w", err)
	}
	for _, dr := range w.drivers {
		dr.foldInto(&res)
	}
	res.spans = append(res.spans, w.coord.spans()...)
	walLayer(before, w.ld.window(), res.updates, res.wall, res.layer)
	mvstmLayer(tmBefore, w.ld.sys().Stats(), res.layer)
	// A checkpoint that starves under multiverse is recorded, not fixed here.
	res.layer["wal.ckpt_served"] = 0
	if ck.err == nil {
		res.layer["wal.ckpt_served"] = 1
	}
	res.layer["wal.ckpt_pause_ms"] = float64(ck.took) / 1e6
	return res, nil
}

func (w *durable) finish() (map[string]float64, error) {
	want := w.ld.pre
	for _, dr := range w.drivers {
		want.add(dr.led)
		dr.th.Unregister()
	}
	keyRange, _ := walSizes(w.e)
	took, err := w.ld.recoverAndCompare(want, keyRange)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"wal.recovery_ms": float64(took) / 1e6}, nil
}
