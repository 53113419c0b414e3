// Package bench is the benchmark harness that regenerates the paper's
// evaluation (§5): prefilled key-value structures, worker threads drawing
// from an operation mix, dedicated updater threads whose throughput is not
// counted (they exist to abort range queries), time-varying phase schedules,
// throughput time series, memory ceilings, and a CPU-time energy proxy.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Config describes one benchmark run (one plotted point).
type Config struct {
	TM        string
	DS        string
	Threads   int // worker threads (counted in throughput)
	Updaters  int // dedicated updater threads (not counted)
	Mix       workload.Mix
	KeyRange  uint64 // key space; prefill targets half of it
	Prefill   int
	Zipf      bool    // zipfian(Theta) keys instead of uniform
	Theta     float64 // zipf exponent (paper: 0.9)
	Duration  time.Duration
	Trials    int
	Seed      uint64
	LockTable int
	// SampleEvery enables a throughput time series (paper Fig 8 samples
	// every 200ms).
	SampleEvery time.Duration
	// Phases replaces Mix/Updaters with a time-varying schedule; phase
	// Seconds are interpreted as fractions of Duration × len(Phases).
	Phases []workload.Phase
	// SizeQueries replaces range queries with full size queries (the
	// paper's hashmap SQ workload).
	SizeQueries bool
	// Shards > 1 runs the workload over an internal/shard composition of
	// that many TM instances (hash-partitioned map, 2PC-free cross-shard
	// snapshot queries) instead of a single System. 0 or 1 = unsharded.
	Shards int
	// Persist, when non-empty, runs the workload over a WAL-backed map
	// (internal/wal) in a throwaway directory under the named fsync
	// policy ("none", "group" or "every"): the workload pays real
	// durability costs — commit observation, group flushing, fsyncs, and
	// one online checkpoint at mid-window — and the Result gains the
	// persistence columns (log bytes/op, checkpoint pause).
	Persist string
}

func (c *Config) fill() {
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.KeyRange == 0 {
		c.KeyRange = 2 * uint64(c.Prefill)
	}
	if c.Duration == 0 {
		c.Duration = 200 * time.Millisecond
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.LockTable == 0 {
		c.LockTable = 1 << 16
	}
	if c.Theta == 0 {
		c.Theta = 0.9
	}
}

// Sample is one time-series point.
type Sample struct {
	At  time.Duration
	Ops uint64 // worker ops completed in this sample window
}

// Result aggregates one run (averaged over trials).
type Result struct {
	Config       Config
	OpsPerSec    float64 // worker ops/sec (updaters excluded, §5)
	RQsPerSec    float64 // committed range/size queries per second
	Commits      uint64
	Aborts       uint64
	Starved      uint64 // operations abandoned at the TM's attempt bound
	Versioned    uint64 // versioned-path commits (Multiverse)
	ListReads    uint64 // versioned reads that needed a version list (Multiverse, Mode U)
	ModeSwitches uint64
	MaxHeapKB    uint64  // peak observed heap during measurement
	CPUSeconds   float64 // process CPU time consumed (energy proxy)
	OpsPerCPUSec float64 // throughput per CPU-second ("per joule" analogue)
	// GC pressure over the measurement window (runtime.MemStats deltas;
	// §4.5: pooled allocation is what lets the versioned path pay off).
	AllocsPerOp  float64       // heap allocations per completed worker op
	BytesPerOp   float64       // heap bytes allocated per completed worker op
	NumGC        uint64        // GC cycles during the window (summed over trials)
	GCPauseTotal time.Duration // total stop-the-world pause (summed over trials)
	Series       []Sample
	// Sharded runs only (Config.Shards > 1): per-shard counter deltas
	// over the last trial's window and the final shared-clock value —
	// the clock moves on aborts and snapshot freezes, so its delta is a
	// direct read on cross-shard coordination traffic.
	ShardStats []stm.Stats
	ClockEnd   uint64
	// Persistence runs only (Config.Persist != ""): durability overhead
	// over the measured window.
	LogBytesPerOp float64       // WAL bytes written per completed worker op
	WALRecords    uint64        // commit records appended
	Fsyncs        uint64        // fsync calls issued
	CkptPause     time.Duration // wall time of the mid-window checkpoint (avg over trials)
	CkptOK        bool          // the mid-window checkpoint served (versionless TMs may starve)
	WALRetries    uint64        // failed flush attempts retried by the failure plane
	WALDegraded   uint64        // healthy→degraded transitions over the window
	// Server runs only (RunServerBench): wire-level load shape and
	// latency quantiles; nil for in-process runs.
	Server *ServerStats
	// Replication runs only (RunReplicaBench): follower apply throughput
	// and lag; nil otherwise.
	Replica *ReplicaStats
}

// ServerStats is the server-benchmark extension of Result: the client-side
// load shape plus wire-latency quantiles from the load generator's
// histogram (internal/server/client.Hist), and the group-commit pipeline's
// amortization counters.
type ServerStats struct {
	Conns, Depth            int
	Ack                     string
	LatP50, LatP99, LatP999 time.Duration
	SyncRounds, SyncedAcks  uint64 // SyncedAcks/SyncRounds = acks amortized per fsync
	Lost                    uint64 // ops with transport outcomes (should be 0 faultless)
	Hist                    *client.Hist
}

// Run executes the configured benchmark and returns averaged results.
func Run(cfg Config) Result {
	cfg.fill()
	var agg Result
	agg.Config = cfg
	agg.CkptOK = true
	for trial := 0; trial < cfg.Trials; trial++ {
		r := runTrial(cfg, cfg.Seed+uint64(trial)*7919)
		agg.OpsPerSec += r.OpsPerSec
		agg.RQsPerSec += r.RQsPerSec
		agg.Commits += r.Commits
		agg.Aborts += r.Aborts
		agg.Starved += r.Starved
		agg.Versioned += r.Versioned
		agg.ListReads += r.ListReads
		agg.ModeSwitches += r.ModeSwitches
		agg.CPUSeconds += r.CPUSeconds
		agg.AllocsPerOp += r.AllocsPerOp
		agg.BytesPerOp += r.BytesPerOp
		agg.NumGC += r.NumGC
		agg.GCPauseTotal += r.GCPauseTotal
		agg.LogBytesPerOp += r.LogBytesPerOp
		agg.WALRecords += r.WALRecords
		agg.Fsyncs += r.Fsyncs
		agg.CkptPause += r.CkptPause
		agg.CkptOK = agg.CkptOK && r.CkptOK
		agg.WALRetries += r.WALRetries
		agg.WALDegraded += r.WALDegraded
		if r.MaxHeapKB > agg.MaxHeapKB {
			agg.MaxHeapKB = r.MaxHeapKB
		}
		if trial == cfg.Trials-1 {
			agg.Series = r.Series
			agg.ShardStats = r.ShardStats
			agg.ClockEnd = r.ClockEnd
		}
	}
	n := float64(cfg.Trials)
	agg.OpsPerSec /= n
	agg.RQsPerSec /= n
	agg.CPUSeconds /= n
	agg.AllocsPerOp /= n
	agg.BytesPerOp /= n
	agg.LogBytesPerOp /= n
	agg.CkptPause /= time.Duration(cfg.Trials)
	if agg.CPUSeconds > 0 {
		// Ops per CPU-second: the Fig 10 "throughput per joule" proxy
		// (joules ∝ CPU-seconds at fixed package power).
		agg.OpsPerCPUSec = agg.OpsPerSec * cfg.Duration.Seconds() / agg.CPUSeconds
	}
	emitJSON(agg)
	return agg
}

type workerCounters struct {
	ops     atomic.Uint64
	rqs     atomic.Uint64
	starved atomic.Uint64
	_       [40]byte
}

func runTrial(cfg Config, seed uint64) Result {
	// On machines with fewer cores than benchmark threads, goroutines on
	// one OS thread only interleave at yield/preemption points, so long
	// reads almost never race updaters. Raising GOMAXPROCS to the thread
	// count makes the OS timeslice them mid-transaction, restoring the
	// contention the paper's multicore testbed has natively.
	want := cfg.Threads + cfg.Updaters + 1
	for _, p := range cfg.Phases {
		if cfg.Threads+p.Updaters+1 > want {
			want = cfg.Threads + p.Updaters + 1
		}
	}
	if prev := runtime.GOMAXPROCS(0); want > prev {
		runtime.GOMAXPROCS(want)
		defer runtime.GOMAXPROCS(prev)
	}
	var (
		sys     stm.System
		m       ds.Map
		sharded *shard.System
		plog    *wal.Log
	)
	switch {
	case cfg.Persist != "":
		policy, ok := wal.PolicyByName(cfg.Persist)
		if !ok {
			panic(fmt.Sprintf("bench: unknown Persist policy %q (want none, group or every)", cfg.Persist))
		}
		dir, err := os.MkdirTemp("", "walbench-*")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		shards := cfg.Shards
		if shards < 1 {
			shards = 1
		}
		wm, l, err := wal.OpenWith(wal.Options{
			Dir: dir, Backend: cfg.TM, Shards: shards, DS: cfg.DS,
			Capacity: max(cfg.Prefill*2, 1024), LockTable: cfg.LockTable,
			Policy: policy,
		})
		if err != nil {
			panic(err)
		}
		plog = l
		sys, m = l.System(), wm
		if cfg.Shards > 1 {
			sharded = l.System()
		}
		defer l.Close()
	case cfg.Shards > 1:
		sharded = NewShardedTM(cfg.TM, cfg.Shards, cfg.LockTable)
		sys = sharded
		m = NewShardedDS(sharded, cfg.DS, max(cfg.Prefill*2, 1024))
		defer sys.Close()
	default:
		sys = NewTM(cfg.TM, cfg.LockTable)
		m = NewDS(cfg.DS, max(cfg.Prefill*2, 1024))
		defer sys.Close()
	}
	prefill(sys, m, cfg, seed)
	var walBefore wal.Stats
	if plog != nil {
		// Fold the prefill into a pre-window checkpoint so the measured
		// log traffic — and the first truncation targets — are the
		// window's own.
		plog.Checkpoint() //nolint:errcheck // versionless TMs may starve; the window still measures
		walBefore = plog.Stats()
	}

	statsBefore := sys.Stats()
	var shardBefore []stm.Stats
	if sharded != nil {
		shardBefore = sharded.ShardStats()
	}
	cpuBefore := processCPUTime()

	var (
		stop     atomic.Bool
		phaseIdx atomic.Uint64
		counters = make([]workerCounters, cfg.Threads)
		wg       sync.WaitGroup
		// regWG/startGate fence the measurement window: workers register
		// (allocating their Thread/EBR state) before the MemStats
		// baseline is read, and start operating only after it.
		regWG     sync.WaitGroup
		startGate = make(chan struct{})
	)
	dist := newDist(cfg)
	rqSpan := rqSpan(cfg)

	maxUpdaters := cfg.Updaters
	for _, p := range cfg.Phases {
		if p.Updaters > maxUpdaters {
			maxUpdaters = p.Updaters
		}
	}

	// Workers.
	regWG.Add(cfg.Threads + maxUpdaters)
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			r := workload.NewRng(seed ^ uint64(id+1)*0x9e3779b97f4a7c15)
			ctr := &counters[id]
			regWG.Done()
			<-startGate
			for !stop.Load() {
				mix := cfg.Mix
				if len(cfg.Phases) > 0 {
					mix = cfg.Phases[phaseIdx.Load()].Mix
				}
				op := mix.Sample(r.Float64())
				key := dist.Draw(r)
				switch op {
				case workload.OpSearch:
					if _, _, ok := ds.Search(th, m, key); !ok {
						ctr.starved.Add(1)
						continue
					}
				case workload.OpInsert:
					if _, ok := ds.Insert(th, m, key, key); !ok {
						ctr.starved.Add(1)
						continue
					}
				case workload.OpDelete:
					if _, ok := ds.Delete(th, m, key); !ok {
						ctr.starved.Add(1)
						continue
					}
				case workload.OpRange:
					ok := false
					if cfg.SizeQueries {
						_, ok = ds.Size(th, m)
					} else {
						span := rqSpan * uint64(mix.RQSize)
						_, _, ok = ds.Range(th, m, key, key+span)
					}
					if !ok {
						ctr.starved.Add(1)
						continue
					}
					ctr.rqs.Add(1)
				}
				ctr.ops.Add(1)
			}
		}(w)
	}
	// Dedicated updaters: every transaction writes (insert-else-delete in
	// one transaction), so none ever commits read-only and they keep
	// conflicting with range queries (§5 experimental setup).
	activeUpdaters := int64(cfg.Updaters)
	var activeUpd atomic.Int64
	activeUpd.Store(activeUpdaters)
	for u := 0; u < maxUpdaters; u++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			r := workload.NewRng(seed ^ uint64(id+1000)*0xbf58476d1ce4e5b9)
			regWG.Done()
			<-startGate
			for !stop.Load() {
				if int64(id) >= activeUpd.Load() {
					time.Sleep(time.Millisecond)
					continue
				}
				key := dist.Draw(r)
				th.Atomic(func(tx stm.Txn) {
					if !m.InsertTx(tx, key, key) {
						m.DeleteTx(tx, key)
						m.InsertTx(tx, key, key+1)
					}
				})
			}
		}(u)
	}

	// Measurement loop: phase switching, sampling, heap watermark.
	res := Result{Config: cfg}
	sampleEvery := cfg.SampleEvery
	tick := 10 * time.Millisecond
	if sampleEvery != 0 && sampleEvery < tick {
		tick = sampleEvery
	}
	var lastOps uint64
	var lastSample time.Duration
	var ms runtime.MemStats
	ckpted := plog == nil
	res.CkptOK = true
	totalDur := cfg.Duration
	if len(cfg.Phases) > 0 {
		totalDur = 0
		for _, p := range cfg.Phases {
			totalDur += time.Duration(p.Seconds * float64(time.Second))
		}
	}
	if sampleEvery != 0 {
		// Pre-size so time-series appends don't count as measured allocs.
		res.Series = make([]Sample, 0, int(totalDur/sampleEvery)+4)
	}
	// Baseline the GC stats only once every thread has registered, and
	// release the workers only after: one-time setup allocations
	// (goroutines, TM registration) stay out of the window.
	regWG.Wait()
	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)
	start := time.Now()
	close(startGate)
	for {
		time.Sleep(tick)
		elapsed := time.Since(start)
		if len(cfg.Phases) > 0 {
			acc := time.Duration(0)
			for i, p := range cfg.Phases {
				acc += time.Duration(p.Seconds * float64(time.Second))
				if elapsed < acc {
					if phaseIdx.Load() != uint64(i) {
						phaseIdx.Store(uint64(i))
						activeUpd.Store(int64(p.Updaters))
					}
					break
				}
			}
		}
		if sampleEvery != 0 && elapsed-lastSample >= sampleEvery {
			ops := sumOps(counters)
			res.Series = append(res.Series, Sample{At: elapsed, Ops: ops - lastOps})
			lastOps = ops
			lastSample = elapsed
		}
		if plog != nil && !ckpted && elapsed >= totalDur/2 {
			// One online checkpoint mid-window: its wall time is the
			// "checkpoint pause" column (the system stays online — the
			// pause is checkpointer latency, not a stop-the-world).
			ckpted = true
			t0 := time.Now()
			_, ckErr := plog.Checkpoint()
			res.CkptPause = time.Since(t0)
			res.CkptOK = ckErr == nil
		}
		runtime.ReadMemStats(&ms)
		if kb := ms.HeapAlloc / 1024; kb > res.MaxHeapKB {
			res.MaxHeapKB = kb
		}
		if elapsed >= totalDur {
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	// GC-pressure deltas over the window. Updater allocations land in the
	// same process-wide pool, so allocs/op is a harness-level pressure
	// metric normalized by completed worker ops, not a per-path profile.
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs - msStart.Mallocs
	bytes := ms.TotalAlloc - msStart.TotalAlloc
	res.NumGC = uint64(ms.NumGC - msStart.NumGC)
	res.GCPauseTotal = time.Duration(ms.PauseTotalNs - msStart.PauseTotalNs)

	elapsed := time.Since(start).Seconds()
	ops := sumOps(counters)
	var rqs, starved uint64
	for i := range counters {
		rqs += counters[i].rqs.Load()
		starved += counters[i].starved.Load()
	}
	res.OpsPerSec = float64(ops) / elapsed
	res.RQsPerSec = float64(rqs) / elapsed
	res.Starved = starved
	if ops > 0 {
		res.AllocsPerOp = float64(allocs) / float64(ops)
		res.BytesPerOp = float64(bytes) / float64(ops)
	}
	st := sys.Stats()
	res.Commits = st.Commits - statsBefore.Commits
	res.Aborts = st.Aborts - statsBefore.Aborts
	res.Versioned = st.VersionedCommits - statsBefore.VersionedCommits
	res.ListReads = st.VersionListReads - statsBefore.VersionListReads
	res.ModeSwitches = st.ModeSwitches - statsBefore.ModeSwitches
	res.CPUSeconds = processCPUTime() - cpuBefore
	if res.CPUSeconds > 0 {
		res.OpsPerCPUSec = res.OpsPerSec / res.CPUSeconds * elapsed
	}
	if sharded != nil {
		after := sharded.ShardStats()
		res.ShardStats = make([]stm.Stats, len(after))
		for i := range after {
			d := after[i]
			d.Sub(shardBefore[i])
			res.ShardStats[i] = d
		}
		res.ClockEnd = sharded.ClockValue()
	}
	if plog != nil {
		walAfter := plog.Stats()
		res.WALRecords = walAfter.Records - walBefore.Records
		res.Fsyncs = walAfter.Fsyncs - walBefore.Fsyncs
		res.WALRetries = walAfter.FlushFailures - walBefore.FlushFailures
		res.WALDegraded = walAfter.Degradations - walBefore.Degradations
		if ops > 0 {
			res.LogBytesPerOp = float64(walAfter.BytesAppended-walBefore.BytesAppended) / float64(ops)
		}
	}
	return res
}

func sumOps(counters []workerCounters) uint64 {
	var n uint64
	for i := range counters {
		n += counters[i].ops.Load()
	}
	return n
}

// prefill inserts random keys until the structure holds cfg.Prefill keys.
func prefill(sys stm.System, m ds.Map, cfg Config, seed uint64) {
	th := sys.Register()
	defer th.Unregister()
	r := workload.NewRng(seed * 31)
	n := 0
	for n < cfg.Prefill {
		key := r.Next()%cfg.KeyRange + 1
		if ins, ok := ds.Insert(th, m, key, key); ok && ins {
			n++
		}
	}
}

func newDist(cfg Config) workload.KeyDist {
	if cfg.Zipf {
		return workload.NewZipfian(cfg.KeyRange, cfg.Theta, true)
	}
	return workload.Uniform{N: cfg.KeyRange}
}

// rqSpan converts "RQ of k keys" into a key-space span: with Prefill keys in
// KeyRange, a span of KeyRange/Prefill covers one key in expectation.
func rqSpan(cfg Config) uint64 {
	if cfg.Prefill == 0 {
		return 1
	}
	s := cfg.KeyRange / uint64(cfg.Prefill)
	if s == 0 {
		s = 1
	}
	return s
}

// String renders a result row.
func (r Result) String() string {
	tm := r.Config.TM
	if r.Config.Shards > 1 {
		tm = fmt.Sprintf("%s[%dsh]", tm, r.Config.Shards)
	}
	return fmt.Sprintf("%-24s %-8s thr=%-3d upd=%-2d ops/s=%-12.0f rq/s=%-8.2f commits=%-9d aborts=%-9d starved=%-6d heapKB=%-8d ops/cpu-s=%-12.0f allocs/op=%-8.2f B/op=%-8.1f gc=%-4d gcPause=%s",
		tm, r.Config.DS, r.Config.Threads, r.Config.Updaters,
		r.OpsPerSec, r.RQsPerSec, r.Commits, r.Aborts, r.Starved, r.MaxHeapKB, r.OpsPerCPUSec,
		r.AllocsPerOp, r.BytesPerOp, r.NumGC, r.GCPauseTotal)
}

// PersistRow renders the durability-overhead line of a persistence run
// (Config.Persist != ""): the fsync policy, WAL traffic normalized per op,
// the mid-window checkpoint pause, and the failure plane's activity (flush
// retries and degraded episodes — nonzero only when the disk misbehaved).
func (r Result) PersistRow() string {
	if r.Config.Persist == "" {
		return ""
	}
	ck := fmt.Sprintf("%.2fms", r.CkptPause.Seconds()*1e3)
	if !r.CkptOK {
		ck += " (starved)"
	}
	return fmt.Sprintf("    persist policy=%-6s logB/op=%-8.1f wal-records=%-9d fsyncs=%-7d retries=%-5d degraded=%-4d ckpt-pause=%s\n",
		r.Config.Persist, r.LogBytesPerOp, r.WALRecords, r.Fsyncs, r.WALRetries, r.WALDegraded, ck)
}

// ShardRows renders the per-shard observability lines of a sharded run:
// each shard's commit/abort traffic and Multiverse versioning activity over
// the last trial's window, plus the shared clock's final value.
func (r Result) ShardRows() string {
	if len(r.ShardStats) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "    shared clock end=%d (moves on aborts and snapshot freezes)\n", r.ClockEnd)
	for i, st := range r.ShardStats {
		fmt.Fprintf(&b, "    shard %-2d commits=%-9d aborts=%-7d versioned=%-7d listReads=%-7d modeSw=%-4d unversion=%-5d addrVer=%d\n",
			i, st.Commits, st.Aborts, st.VersionedCommits, st.VersionListReads, st.ModeSwitches, st.Unversionings, st.AddrVersioned)
	}
	return b.String()
}
