package bench

import (
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/replica"
	"repro/internal/wal"
)

// ReplicaConfig parameterizes one log-shipping benchmark: a WAL-backed
// leader under point-op write load with a follower replica tailing it —
// either directly over the leader's directory (shared-disk shape) or
// through the Shipper→TCP→Receiver channel (the wire shape). The result
// measures the replication plane itself: apply throughput on the follower,
// the record lag distribution while the leader writes, and how long the
// follower needs to drain to exact equality once the leader quiesces.
type ReplicaConfig struct {
	TM       string // WAL-capable backend (default multiverse)
	DS       string // data structure (default hashmap)
	Shards   int    // leader TM instances / log streams (default 2)
	Writers  int    // leader writer threads (default 4)
	Channel  bool   // ship over loopback TCP instead of tailing the dir
	KeyRange uint64 // key space (default 1<<14)
	Prefill  int
	Duration time.Duration
	Trials   int
	Seed     uint64
}

func (c *ReplicaConfig) fill() {
	if c.TM == "" {
		c.TM = "multiverse"
	}
	if c.DS == "" {
		c.DS = "hashmap"
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Writers <= 0 {
		c.Writers = 4
	}
	if c.KeyRange == 0 {
		c.KeyRange = 1 << 14
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Trials <= 0 {
		c.Trials = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ReplicaStats is the replication extension of Result: follower apply
// throughput, the sampled record-lag distribution (leader records appended
// minus follower records applied, sampled while the leader writes), and the
// post-quiesce drain time to exact leader equality.
type ReplicaStats struct {
	Channel           bool
	AppliedRecsPerSec float64
	LagP50, LagP99    uint64  // record lag quantiles over mid-write samples
	DrainMs           float64 // quiesce → exact-equality convergence (avg)
	Rebases           uint64
	ShippedBytes      uint64 // channel runs: bytes that crossed the wire
}

// RunReplicaBench runs the configured replication benchmark and returns
// averaged results riding the standard JSON emission (RunRecord gains the
// replica_* fields).
func RunReplicaBench(c ReplicaConfig) (Result, error) {
	c.fill()
	var agg Result
	agg.Config = Config{
		TM: c.TM, DS: c.DS, Threads: c.Writers, Shards: c.Shards,
		Prefill: c.Prefill, Duration: c.Duration, Trials: c.Trials,
		Persist: "group", Seed: c.Seed,
	}
	agg.CkptOK = true
	agg.Replica = &ReplicaStats{Channel: c.Channel}
	var lags []uint64
	for trial := 0; trial < c.Trials; trial++ {
		tr, err := runReplicaTrial(c, c.Seed+uint64(trial)*7919)
		if err != nil {
			return agg, err
		}
		agg.OpsPerSec += tr.opsPerSec
		agg.Commits += tr.commits
		agg.WALRecords += tr.walRecords
		agg.Replica.AppliedRecsPerSec += tr.appliedPerSec
		agg.Replica.DrainMs += tr.drainMs
		agg.Replica.Rebases += tr.rebases
		agg.Replica.ShippedBytes += tr.shippedBytes
		lags = append(lags, tr.lags...)
	}
	agg.OpsPerSec /= float64(c.Trials)
	agg.Replica.AppliedRecsPerSec /= float64(c.Trials)
	agg.Replica.DrainMs /= float64(c.Trials)
	slices.Sort(lags)
	if n := len(lags); n > 0 {
		agg.Replica.LagP50 = lags[n/2]
		agg.Replica.LagP99 = lags[n*99/100]
	}
	emitJSON(agg)
	return agg, nil
}

type replicaTrial struct {
	opsPerSec     float64
	commits       uint64
	walRecords    uint64
	appliedPerSec float64
	drainMs       float64
	rebases       uint64
	shippedBytes  uint64
	lags          []uint64
}

func runReplicaTrial(c ReplicaConfig, seed uint64) (replicaTrial, error) {
	var tr replicaTrial
	leaderDir, err := os.MkdirTemp("", "multibench-replica-l-*")
	if err != nil {
		return tr, err
	}
	defer os.RemoveAll(leaderDir)

	m, l, err := wal.OpenWith(wal.Options{
		Dir: leaderDir, Backend: c.TM, Shards: c.Shards, DS: c.DS,
		Policy: wal.SyncGroup, Capacity: 1 << 16, LockTable: 1 << 16,
	})
	if err != nil {
		return tr, err
	}
	defer l.Close()
	sys := l.System()

	if c.Prefill > 0 {
		th := sys.Register()
		rng := seed
		for i := 0; i < c.Prefill; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			ds.Insert(th, m, 1+rng%c.KeyRange, rng)
		}
		th.Unregister()
	}
	if err := l.Sync(); err != nil {
		return tr, err
	}

	// The follower tails either the leader's directory itself or a shipped
	// copy fed through one clean loopback session.
	replicaDir := leaderDir
	var sh *replica.Shipper
	var rc *replica.Receiver
	var shipWG sync.WaitGroup
	if c.Channel {
		followerDir, err := os.MkdirTemp("", "multibench-replica-f-*")
		if err != nil {
			return tr, err
		}
		defer os.RemoveAll(followerDir)
		replicaDir = followerDir
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return tr, err
		}
		acc := make(chan net.Conn, 1)
		go func() {
			conn, err := ln.Accept()
			if err == nil {
				acc <- conn
			}
			ln.Close()
		}()
		cc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return tr, err
		}
		sc := <-acc
		sh = replica.NewShipper(sc, leaderDir, replica.ShipperOptions{Interval: 200 * time.Microsecond})
		rc = replica.NewReceiver(cc, replicaDir)
		shipWG.Add(2)
		go func() { defer shipWG.Done(); _ = sh.Run() }()
		go func() { defer shipWG.Done(); _ = rc.Run() }()
		defer func() { sh.Stop(); rc.Stop(); shipWG.Wait() }()
	}

	r, err := replica.Open(replica.Options{Dir: replicaDir, Backend: c.TM, DS: c.DS})
	if err != nil {
		return tr, err
	}
	defer r.Close()
	if !c.Channel {
		// Direct tail: the prefill is already on disk; start measured work
		// from a caught-up follower. Channel runs skip this (the copy fills
		// during the window; the drain metric absorbs the difference).
		if err := r.CatchUp(10 * time.Second); err != nil {
			return tr, err
		}
	}

	recsBefore := l.Stats().Records
	appliedBefore := r.Stats().AppliedRecs
	sysBefore := sys.Stats()

	var stop atomic.Bool
	var wg sync.WaitGroup
	var ops atomic.Uint64
	for w := 0; w < c.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			rng := seed ^ uint64(w+1)*0xbf58476d1ce4e5b9
			for !stop.Load() {
				// Op choice and key come from the high bits: the LCG's low
				// bits are weak (parity alternates strictly), and a parity
				// op bit correlated with key%range degenerates the workload
				// into insert-odd/delete-even no-ops.
				rng = rng*6364136223846793005 + 1442695040888963407
				k := 1 + (rng>>20)%c.KeyRange
				if rng>>63 == 0 {
					ds.Insert(th, m, k, rng)
				} else {
					ds.Delete(th, m, k)
				}
				ops.Add(1)
			}
		}(w)
	}

	// Sample record lag while the leader writes. No mid-window checkpoint:
	// a rebase would make the applied-record counter incomparable to the
	// leader's appended-record counter (the rebase skips records by design).
	start := time.Now()
	deadline := start.Add(c.Duration)
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		appended := l.Stats().Records - recsBefore
		applied := r.Stats().AppliedRecs - appliedBefore
		if appended > applied {
			tr.lags = append(tr.lags, appended-applied)
		} else {
			tr.lags = append(tr.lags, 0)
		}
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if err := l.Sync(); err != nil {
		return tr, err
	}

	// Drain: time from leader quiesce to exact state equality. Wait on the
	// cheap applied-record counter first — full-map export scans at a high
	// rate starve the applier's transactions and would inflate the very
	// drain they measure — then confirm with exports at a low cadence.
	acked, _ := ds.ExportSorted(l.System(), m)
	drainStart := time.Now()
	wantRecs := l.Stats().Records - recsBefore
	for r.Stats().AppliedRecs-appliedBefore < wantRecs {
		if time.Since(drainStart) > 30*time.Second {
			break // rebases legitimately skip records; the export loop decides
		}
		time.Sleep(200 * time.Microsecond)
	}
	for {
		if pairs, ok := ds.ExportSorted(r.System(), r.Map()); ok && slices.Equal(pairs, acked) {
			break
		}
		if time.Since(drainStart) > 60*time.Second {
			return tr, fmt.Errorf("bench: follower never drained to leader equality")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr.drainMs = float64(time.Since(drainStart).Nanoseconds()) / 1e6

	st := r.Stats()
	tr.appliedPerSec = float64(st.AppliedRecs-appliedBefore) / elapsed.Seconds()
	tr.rebases = st.Rebases
	tr.opsPerSec = float64(ops.Load()) / elapsed.Seconds()
	tr.commits = sys.Stats().Commits - sysBefore.Commits
	tr.walRecords = l.Stats().Records - recsBefore
	if sh != nil {
		tr.shippedBytes = sh.SentBytes()
	}
	return tr, nil
}

// ReplicaRow renders the replication-only columns next to Result.String.
func (r Result) ReplicaRow() string {
	s := r.Replica
	if s == nil {
		return ""
	}
	mode := "direct"
	if s.Channel {
		mode = "channel"
	}
	return fmt.Sprintf("    replica mode=%-7s applied/s=%-10.0f lag-p50=%-6d lag-p99=%-6d drain=%-8.2fms rebases=%-3d shipped=%dB\n",
		mode, s.AppliedRecsPerSec, s.LagP50, s.LagP99, s.DrainMs, s.Rebases, s.ShippedBytes)
}
