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
	"repro/internal/stm"
	"repro/internal/workload"
)

// TestShapeRQsUnderUpdaters encodes the paper's headline qualitative claim
// (Fig 6 row 2): with dedicated updaters interfering, Multiverse still
// completes range queries, while the unversioned baselines either starve
// their RQs outright or complete materially fewer.
func TestShapeRQsUnderUpdaters(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput shape test")
	}
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		// The claim is about updaters aborting concurrent range queries.
		// With one hardware core (or one P, e.g. under -cpu=1) the
		// goroutines timeslice coarsely, RQs rarely race an updater
		// mid-flight, and the tl2-vs-multiverse comparison is scheduler
		// noise (flaky in either direction).
		t.Skip("needs real parallelism; single-CPU contention is scheduler noise")
	}
	cfg := Config{
		DS:       "abtree",
		Threads:  3,
		Updaters: 3,
		Prefill:  4096,
		Duration: 400 * time.Millisecond,
		Mix:      workload.Mix{InsertPct: 0.05, DeletePct: 0.05, RQPct: 0.002, RQSize: 1024},
	}
	results := map[string]Result{}
	for _, tm := range []string{"multiverse", "dctl", "tl2"} {
		c := cfg
		c.TM = tm
		results[tm] = Run(c)
	}
	mv := results["multiverse"]
	if mv.RQsPerSec == 0 {
		t.Fatalf("multiverse completed no RQs under updaters: %+v", mv)
	}
	if mv.Starved != 0 {
		t.Errorf("multiverse starved %d operations; its versioned path must not give up", mv.Starved)
	}
	// The unversioned TMs must show the pathology somewhere: starved RQs
	// or materially fewer completed RQs than Multiverse.
	for _, tm := range []string{"tl2"} {
		r := results[tm]
		if r.Starved == 0 && r.RQsPerSec > mv.RQsPerSec {
			t.Errorf("%s out-RQ'd multiverse with no starvation (rq/s %0.1f vs %0.1f) — shape inverted",
				tm, r.RQsPerSec, mv.RQsPerSec)
		}
	}
	t.Logf("rq/s: mv=%.1f dctl=%.1f tl2=%.1f (starved: %d/%d/%d)",
		mv.RQsPerSec, results["dctl"].RQsPerSec, results["tl2"].RQsPerSec,
		mv.Starved, results["dctl"].Starved, results["tl2"].Starved)
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
		keyRange = 200_000
		span     = 50_000 // about 25 000 keys a query
		trials   = 5
		queries  = 40
	)
	sys := NewTM("multiverse-u", 1<<20)
	defer sys.Close()
	m := NewDS("abtree", keyRange)
	prefill(sys, m, Config{Prefill: keyRange / 2, KeyRange: keyRange}, 1)
	rd := sys.Register()
	defer rd.Unregister()

	// measure times `queries` range queries and returns their median cost
	// and the mean number of attempts one took.
	measure := func(seed uint64) (median time.Duration, attempts float64) {
		r := workload.NewRng(seed)
		lat := make([]time.Duration, queries)
		bodies := 0
		for i := range lat {
			lo := r.Next()%(keyRange-span) + 1
			t0 := time.Now()
			if !rd.ReadOnly(func(tx stm.Txn) { bodies++; m.RangeTx(tx, lo, lo+span-1) }) {
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
				key := r.Next()%keyRange + 1
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
