package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/replica"
	"repro/internal/wal"
	"repro/internal/workload"
)

const (
	// replicaWindow is how many update records the leader may be ahead of
	// the follower. It is a closed loop with that many records outstanding:
	// large enough that the follower always has a backlog across the leader's
	// 10 ms group-commit flushes, so the applier is the busy stage throughout.
	replicaWindow = 16_384
	// replicaQuantum applied records are one timing sample of the applier's
	// pace (replica.apply_us_per_rec): fixed work on the follower's side.
	replicaQuantum = 2_048
	// leaderBatch ops run between two looks at the follower's progress.
	leaderBatch = 64
)

var searchOnly = workload.Mix{}

// follow is the replica-follow workload: the durable leader, a loopback
// shipping channel, and a follower that applies the log and serves reads.
type follow struct {
	e      *env
	ld     *leader
	svc    *replica.ShipService
	rc     *replica.Receiver
	rcDone sync.WaitGroup
	conn   net.Conn
	mirror string
	r      *replica.Replica
	lead   *driver // driver 0: 100% updates on the leader
	reader *driver // driver 1: searches on the follower
	coord  *tctx
}

func setupReplica(e *env) (instance, error) {
	ld, err := openLeader(e, wal.SyncGroup, walGroupInterval, nil)
	if err != nil {
		return nil, err
	}
	w := &follow{e: e, ld: ld}
	fail := func(err error) (instance, error) {
		w.teardown()
		return nil, err
	}
	if w.mirror, err = e.tempDir("mirror-*"); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	w.svc = replica.ServeShipping(ln, ld.dir, replica.ShipperOptions{Interval: 200 * time.Microsecond})
	if w.conn, err = net.Dial("tcp", w.svc.Addr().String()); err != nil {
		return fail(err)
	}
	w.rc = replica.NewReceiver(w.conn, w.mirror)
	w.rcDone.Add(1)
	go func() { defer w.rcDone.Done(); _ = w.rc.Run() }() // ends with Stop in teardown
	w.r, err = replica.Open(replica.Options{Dir: w.mirror, Backend: "multiverse", Shards: walShards,
		DS: "hashmap", Capacity: walKeyRange})
	if err != nil {
		return fail(err)
	}
	if err := w.awaitFollower(); err != nil {
		return fail(err)
	}
	keyRange, _ := walSizes(e)
	w.lead = ld.newDriver(e, 0, updaterMix)
	w.reader = newDriver(genStream(e.seed, 1, streamLn, keyRange, searchOnly))
	w.reader.yields = true
	if e.traced {
		w.reader.t = newTctx(e.wlIdx, 1, 64)
		w.coord = newTctx(e.wlIdx, 2, 1)
	}
	w.reader.th = traceThread(w.r.System().Register(), w.reader.t, "shard")
	w.reader.m = traceMap(w.r.Map(), w.reader.t, "replica")
	return w, nil
}

// awaitFollower blocks until the follower has applied every record the
// leader's log holds. CatchUp alone only drains what has already reached the
// mirror directory, so the applied-record count is awaited first.
func (w *follow) awaitFollower() error {
	want := w.ld.l.Stats().Records
	deadline := time.Now().Add(60 * time.Second)
	for w.r.Stats().AppliedRecs < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower applied %d of %d records in 60s: %v", w.r.Stats().AppliedRecs, want, w.r.Err())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return w.r.CatchUp(30 * time.Second)
}

func (w *follow) trial(d time.Duration) (trialResult, error) {
	res := trialResult{layer: map[string]float64{}}
	w.lead.resetTrial()
	w.reader.resetTrial()
	window, quantum := uint64(replicaWindow), uint64(replicaQuantum)
	if w.e.quick {
		window, quantum = 2_048, 256
	}
	before, tmBefore, repBefore := w.ld.window(), w.ld.sys().Stats(), w.r.Stats()
	shipped0 := w.rc.Bytes()
	var lagMs, applyQ []float64

	// With the shipper, the receiver and the applier there are more runnable
	// goroutines than cores, and a driver that never yields holds its core for
	// the scheduler's 10 ms slice while the pipeline it is measuring waits. So
	// the reader yields after every quantum, and the leader whenever it is a
	// full window ahead.
	t0 := time.Now()
	wall := runDrivers(2, d, func(i int, stop *atomic.Bool) {
		if i == 1 {
			w.reader.run(stop)
			return
		}
		// The leader writes while it is less than a window ahead, and times
		// every `quantum` records the follower applies.
		mark, markNs := repBefore.AppliedRecs, nowNs()
		for !stop.Load() {
			applied := w.r.Stats().AppliedRecs
			if applied >= mark+quantum {
				t := nowNs()
				applyQ = append(applyQ, float64(t-markNs)/float64(applied-mark))
				lagMs = append(lagMs, float64(w.r.LagNs())/1e6)
				mark, markNs = applied, t
			}
			if w.ld.l.Stats().Records-applied >= window {
				runtime.Gosched()
				continue
			}
			t := nowNs()
			for k := 0; k < leaderBatch; k++ {
				kind, ok := w.lead.step()
				now := nowNs()
				w.lead.count(kind, ok, now-t)
				t = now
			}
		}
	})
	res.wall = wall
	w.coord.beginOp("trial-end")
	var err error
	w.coord.call("wal", "Sync", func() { err = w.ld.l.Sync() })
	if err == nil {
		w.coord.call("replica", "CatchUp", func() { err = w.awaitFollower() })
	}
	w.coord.endOp()
	if err != nil {
		return res, err
	}
	rep := w.r.Stats()
	w.lead.foldInto(&res)
	w.reader.foldInto(&res)
	res.spans = append(res.spans, w.coord.spans()...)

	walLayer(before, w.ld.window(), res.updates, res.wall, res.layer)
	mvstmLayer(tmBefore, w.ld.sys().Stats(), res.layer)
	if polls := rep.Polls - repBefore.Polls; polls > 0 {
		res.layer["replica.empty_poll_share"] = float64(rep.EmptyPolls-repBefore.EmptyPolls) / float64(polls)
	}
	res.layer["replica.rebases"] = float64(rep.Rebases - repBefore.Rebases)
	res.layer["replica.ship_bytes_per_s"] = float64(w.rc.Bytes()-shipped0) / res.wall.Seconds()
	// Records applied over the time until the follower held them all, and
	// the applier's own pace while it had a backlog to work through.
	res.layer["replica.apply_recs_per_s"] = float64(rep.AppliedRecs-repBefore.AppliedRecs) / time.Since(t0).Seconds()
	res.layer["replica.apply_us_per_rec"] = fastDecile(applyQ) / 1e3
	if len(lagMs) > 0 {
		sort.Float64s(lagMs)
		res.layer["replica.lag_ms_p50"] = lagMs[len(lagMs)/2]
		res.layer["replica.lag_ms_max"] = lagMs[len(lagMs)-1]
	}
	return res, nil
}

func (w *follow) finish() (map[string]float64, error) {
	err := w.oracle()
	w.teardown()
	return nil, err
}

// oracle: after CatchUp the follower's export equals the leader's, and the
// leader's content equals the ledgers.
func (w *follow) oracle() error {
	if err := w.ld.l.Sync(); err != nil {
		return err
	}
	if err := w.awaitFollower(); err != nil {
		return err
	}
	want := w.ld.pre
	want.add(w.lead.led)
	keyRange, _ := walSizes(w.e)
	lth := w.ld.sys().Register()
	defer lth.Unregister()
	if err := checkLedger(lth, w.ld.m, keyRange, want); err != nil {
		return err
	}
	leaderPairs, err := exportSorted(lth, w.ld.m)
	if err != nil {
		return err
	}
	followerPairs, err := exportSorted(w.reader.th, w.r.Map())
	if err != nil {
		return err
	}
	if err := samePairs(leaderPairs, followerPairs); err != nil {
		return fmt.Errorf("oracle: follower differs from leader after CatchUp: %w", err)
	}
	return nil
}

// teardown stops whatever set-up got as far as starting.
func (w *follow) teardown() {
	if w.lead != nil {
		w.lead.th.Unregister()
	}
	if w.reader != nil {
		w.reader.th.Unregister()
	}
	if w.r != nil {
		w.r.Close()
	}
	if w.rc != nil {
		w.rc.Stop()
		w.rcDone.Wait()
	}
	if w.conn != nil {
		w.conn.Close()
	}
	if w.svc != nil {
		w.svc.Close()
	}
	w.ld.l.Close()
	os.RemoveAll(w.ld.dir)
	if w.mirror != "" {
		os.RemoveAll(w.mirror)
	}
}
