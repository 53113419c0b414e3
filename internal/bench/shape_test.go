//go:build shape

package bench

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/registry"
	"repro/internal/stm"
	"repro/internal/workload"
)

// The long-read geometry (the one benchmark/'s long-read workload uses): an
// (a,b)-tree holding half of longKeyRange, and range queries spanning a
// quarter of it, about 25 000 keys each.
const (
	longKeyRange = 200_000
	longSpan     = 50_000
)

func longReadTree(sys stm.System) ds.Map {
	m := NewDS("abtree", longKeyRange)
	prefill(sys, m, Config{Prefill: longKeyRange / 2}, 1)
	return m
}

// TestShapeRQsUnderUpdaters encodes the paper's headline qualitative claim
// (Fig 6 row 2) as counts on the geometry it is about, a long range query
// beside an updater: Multiverse commits every query, in about two attempts
// once the mode machine has settled, while the single-version baselines
// abandon every one at their attempt bound.
//
// The interference is scripted, not raced: every attempt reads the first half
// of its range, then an updater transaction (a second Thread, driven from the
// query's own body) toggles one key already read and one not yet read, then
// the attempt reads the second half. No single-version TM can commit that
// attempt (old first key, new second key is no snapshot), whatever the
// scheduler does; a versioned reader takes the second key's old version.
// DCTL is not a subject: its irrevocable fallback holds a global flag the
// scripted updater would wait on forever.
func TestShapeRQsUnderUpdaters(t *testing.T) {
	if testing.Short() {
		t.Skip("long-read shape test")
	}
	const queries = 20
	// run returns the sorted attempts the queries took and how many gave up.
	run := func(tm string) (attempts []int, starved int) {
		sys := must(registry.NewTM(tm, registry.Params{LockTable: 1 << 20, MaxAttempts: 64}))
		defer sys.Close()
		m := longReadTree(sys)
		rd, up := sys.Register(), sys.Register()
		defer rd.Unregister()
		defer up.Unregister()
		attempts = make([]int, queries)
		for i := range attempts {
			lo := uint64(i*1000 + 1)
			mid, hi := lo+longSpan/2, lo+longSpan-1
			if !rd.ReadOnly(func(tx stm.Txn) {
				attempts[i]++
				m.RangeTx(tx, lo, mid)
				up.Atomic(func(utx stm.Txn) {
					for _, key := range []uint64{lo + 7, hi - 7} {
						if !m.InsertTx(utx, key, key) {
							m.DeleteTx(utx, key)
						}
					}
				})
				m.RangeTx(tx, mid+1, hi)
			}) {
				starved++
			}
		}
		slices.Sort(attempts)
		t.Logf("%-10s attempts per query (sorted) %v, abandoned %d/%d", tm, attempts, starved, queries)
		return attempts, starved
	}
	attempts, starved := run("multiverse")
	if starved != 0 {
		t.Errorf("multiverse abandoned %d of %d queries; its versioned path must not give up", starved, queries)
	}
	// The first few queries pay K1 unversioned attempts and the Mode Q → U
	// switch; the median is past them. The switch is made by Multiverse's
	// background thread, which needs a processor while the query loops.
	if runtime.NumCPU() >= 2 && runtime.GOMAXPROCS(0) >= 2 && attempts[queries/2] > 3 {
		t.Errorf("multiverse: median %d attempts per query, want at most 3", attempts[queries/2])
	}
	for _, tm := range []string{"tl2", "tinystm", "norec"} {
		if _, starved := run(tm); starved != queries {
			t.Errorf("%s committed %d of %d queries that no single-version TM can serve", tm, queries-starved, queries)
		}
	}
}

// TestShapeNoRQParity encodes the other half of the claim (Fig 6 columns 1
// and 3): without range queries, Multiverse's throughput stays within a
// small factor of DCTL's — versioning costs nothing when unused.
func TestShapeNoRQParity(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput shape test")
	}
	cfg := Config{
		DS:       "abtree",
		Threads:  2,
		Prefill:  4096,
		Duration: 400 * time.Millisecond,
		Mix:      workload.Mix{InsertPct: 0.05, DeletePct: 0.05},
	}
	run := func(tm string) Result {
		c := cfg
		c.TM = tm
		return Run(c)
	}
	mv := run("multiverse")
	dc := run("dctl")
	if mv.OpsPerSec < dc.OpsPerSec/3 {
		t.Errorf("multiverse no-RQ throughput %.0f below a third of dctl's %.0f — fast-path overhead regression",
			mv.OpsPerSec, dc.OpsPerSec)
	}
	if mv.Versioned > mv.Commits/100 {
		t.Errorf("no-RQ workload used the versioned path %d times of %d commits", mv.Versioned, mv.Commits)
	}
	t.Logf("ops/s: mv=%.0f dctl=%.0f", mv.OpsPerSec, dc.OpsPerSec)
}

// TestShapeModeURangeCost encodes what the in-place-first Mode U read path
// buys: a long range query beside a dedicated updater costs about what the
// same query costs on a quiescent tree, and gets there in about two attempts
// (one unversioned attempt that loses to the updater, one versioned attempt
// that reads all but the freshly written words in place). Before that path
// the same query burned K1 = 100 doomed unversioned attempts and then walked
// a version list per word: about 30x the quiescent cost.
func TestShapeModeURangeCost(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput shape test")
	}
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs the updater running beside the reader, not timesliced with it")
	}
	const (
		trials  = 5
		queries = 40
	)
	sys := NewTM("multiverse-u", 1<<20)
	defer sys.Close()
	m := longReadTree(sys)
	rd := sys.Register()
	defer rd.Unregister()

	// measure times `queries` range queries and returns their median cost
	// and the mean number of attempts one took.
	measure := func(seed uint64) (median time.Duration, attempts float64) {
		r := workload.NewRng(seed)
		lat := make([]time.Duration, queries)
		bodies := 0
		for i := range lat {
			lo := r.Next()%(longKeyRange-longSpan) + 1
			t0 := time.Now()
			if !rd.ReadOnly(func(tx stm.Txn) { bodies++; m.RangeTx(tx, lo, lo+longSpan-1) }) {
				t.Fatal("range query starved")
			}
			lat[i] = time.Since(t0)
		}
		slices.Sort(lat)
		return lat[queries/2], float64(bodies) / queries
	}

	var quiet, busy []time.Duration
	var attempts []float64
	before := sys.Stats()
	for trial := uint64(0); trial < trials; trial++ {
		q, _ := measure(trial)
		quiet = append(quiet, q)

		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			r := workload.NewRng(trial ^ 0x5eed)
			for !stop.Load() {
				key := r.Next()%longKeyRange + 1
				if r.Next()&1 == 0 {
					ds.Insert(th, m, key, key)
				} else {
					ds.Delete(th, m, key)
				}
			}
		}()
		b, a := measure(trial)
		stop.Store(true)
		wg.Wait()
		busy = append(busy, b)
		attempts = append(attempts, a)
	}
	slices.Sort(quiet)
	slices.Sort(busy)
	slices.Sort(attempts)
	q, b, a := quiet[trials/2], busy[trials/2], attempts[trials/2]
	st := sys.Stats()
	st.Sub(before)
	t.Logf("median range query over %d trials: quiescent %v, beside an updater %v (%.1fx), %.2f attempts/query, %.0f version-list reads per versioned query",
		trials, q, b, float64(b)/float64(q), a, float64(st.VersionListReads)/float64(max(st.VersionedCommits, 1)))
	if b > 3*q {
		t.Errorf("range query beside an updater costs %v, over 3x the quiescent %v", b, q)
	}
	if a > 3 {
		t.Errorf("range query beside an updater takes %.2f attempts, want at most 3", a)
	}
}
