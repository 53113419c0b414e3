//go:build shape

package bench

import (
	"runtime"
	"testing"
	"time"

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
