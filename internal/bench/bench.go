// Package bench is the benchmark harness that regenerates the paper's
// evaluation (§5): prefilled key-value structures, worker threads drawing
// from an operation mix, dedicated updater threads whose throughput is not
// counted (they exist to abort range queries), time-varying phase schedules,
// throughput time series, memory ceilings, and a CPU-time energy proxy.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/stm"
	"repro/internal/workload"
)

// Config describes one benchmark run (one plotted point).
type Config struct {
	TM       string
	DS       string
	Threads  int // worker threads (counted in throughput)
	Updaters int // dedicated updater threads (not counted)
	Mix      workload.Mix
	Prefill  int  // keys held at the start: half of the key space
	Zipf     bool // zipfian(zipfTheta) keys instead of uniform
	Duration time.Duration
	Trials   int
	// SampleEvery enables a throughput time series (paper Fig 8 samples
	// every 200ms).
	SampleEvery time.Duration
	// Phases replaces Mix/Updaters with a time-varying schedule; the sum
	// of the phases' Seconds, not Duration, is then the measured window.
	Phases []workload.Phase
	// SizeQueries replaces range queries with full size queries (the
	// paper's hashmap SQ workload).
	SizeQueries bool
}

func (c *Config) fill() {
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.Duration == 0 {
		c.Duration = 200 * time.Millisecond
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
}

// What every experiment shares (no figure varies them).
const (
	baseSeed      = 42
	lockTableSize = 1 << 16
	zipfTheta     = 0.9 // the paper's zipf exponent
	// rqSpan converts "RQ of k keys" into a key-space span: with half the
	// key space filled, a span of 2 covers one key in expectation.
	rqSpan = 2
)

// keyRange is the key space: prefill fills half of it.
func (c Config) keyRange() uint64 { return 2 * uint64(c.Prefill) }

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
}

// Run executes the configured benchmark and returns averaged results.
func Run(cfg Config) Result {
	cfg.fill()
	var agg Result
	agg.Config = cfg
	for trial := 0; trial < cfg.Trials; trial++ {
		r := runTrial(cfg, baseSeed+uint64(trial)*7919)
		agg.OpsPerSec += r.OpsPerSec
		agg.RQsPerSec += r.RQsPerSec
		agg.Commits += r.Commits
		agg.Aborts += r.Aborts
		agg.Starved += r.Starved
		agg.Versioned += r.Versioned
		agg.ListReads += r.ListReads
		agg.ModeSwitches += r.ModeSwitches
		agg.CPUSeconds += r.CPUSeconds
		agg.OpsPerCPUSec += r.OpsPerCPUSec
		agg.AllocsPerOp += r.AllocsPerOp
		agg.BytesPerOp += r.BytesPerOp
		agg.NumGC += r.NumGC
		agg.GCPauseTotal += r.GCPauseTotal
		if r.MaxHeapKB > agg.MaxHeapKB {
			agg.MaxHeapKB = r.MaxHeapKB
		}
		if trial == cfg.Trials-1 {
			agg.Series = r.Series
		}
	}
	n := float64(cfg.Trials)
	agg.OpsPerSec /= n
	agg.RQsPerSec /= n
	agg.CPUSeconds /= n
	agg.OpsPerCPUSec /= n
	agg.AllocsPerOp /= n
	agg.BytesPerOp /= n
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
	maxUpdaters := cfg.Updaters
	for _, p := range cfg.Phases {
		maxUpdaters = max(maxUpdaters, p.Updaters)
	}
	if want, prev := cfg.Threads+maxUpdaters+1, runtime.GOMAXPROCS(0); want > prev {
		runtime.GOMAXPROCS(want)
		defer runtime.GOMAXPROCS(prev)
	}
	sys := NewTM(cfg.TM, lockTableSize)
	defer sys.Close()
	m := NewDS(cfg.DS, max(cfg.Prefill*2, 1024))
	prefill(sys, m, cfg, seed)
	statsBefore := sys.Stats()
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
	var activeUpd atomic.Int64
	activeUpd.Store(int64(cfg.Updaters))
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
		var acc time.Duration
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
		if sampleEvery != 0 && elapsed-lastSample >= sampleEvery {
			ops := sumOps(counters)
			res.Series = append(res.Series, Sample{At: elapsed, Ops: ops - lastOps})
			lastOps = ops
			lastSample = elapsed
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
		// Ops per CPU-second over the measured window (which Phases, not
		// Duration, may set): the Fig 10 "throughput per joule" proxy
		// (joules ∝ CPU-seconds at fixed package power).
		res.OpsPerCPUSec = float64(ops) / res.CPUSeconds
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
		key := r.Next()%cfg.keyRange() + 1
		if ins, ok := ds.Insert(th, m, key, key); ok && ins {
			n++
		}
	}
}

func newDist(cfg Config) workload.KeyDist {
	if cfg.Zipf {
		return workload.NewZipfian(cfg.keyRange(), zipfTheta, true)
	}
	return workload.Uniform{N: cfg.keyRange()}
}

// String renders a result row.
func (r Result) String() string {
	return fmt.Sprintf("%-24s %-8s thr=%-3d upd=%-2d ops/s=%-12.0f rq/s=%-8.2f commits=%-9d aborts=%-9d starved=%-6d heapKB=%-8d ops/cpu-s=%-12.0f allocs/op=%-8.2f B/op=%-8.1f gc=%-4d gcPause=%s",
		r.Config.TM, r.Config.DS, r.Config.Threads, r.Config.Updaters,
		r.OpsPerSec, r.RQsPerSec, r.Commits, r.Aborts, r.Starved, r.MaxHeapKB, r.OpsPerCPUSec,
		r.AllocsPerOp, r.BytesPerOp, r.NumGC, r.GCPauseTotal)
}
