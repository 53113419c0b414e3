package bench

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func quickCfg(tm string) Config {
	return Config{
		TM:       tm,
		DS:       "abtree",
		Threads:  2,
		Prefill:  512,
		Duration: 60 * time.Millisecond,
		Mix:      workload.Mix{InsertPct: 0.05, DeletePct: 0.05, RQPct: 0.001, RQSize: 32},
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	for _, tm := range TMNames {
		t.Run(tm, func(t *testing.T) {
			res := Run(quickCfg(tm))
			if res.OpsPerSec <= 0 {
				t.Fatalf("ops/s = %f", res.OpsPerSec)
			}
			if res.Commits == 0 {
				t.Fatal("no commits recorded")
			}
			if res.CPUSeconds <= 0 {
				t.Fatal("no CPU time recorded")
			}
		})
	}
}

func TestUpdaterThroughputNotCounted(t *testing.T) {
	// With zero worker threads... workers must be >=1; instead compare
	// commits (which include updaters) against counted ops: with many
	// updaters, commits must exceed worker ops.
	cfg := quickCfg("dctl")
	cfg.Updaters = 4
	res := Run(cfg)
	workerOps := uint64(res.OpsPerSec * cfg.Duration.Seconds())
	if res.Commits <= workerOps {
		t.Fatalf("commits (%d) should exceed counted worker ops (%d): updaters excluded from throughput but not from commits",
			res.Commits, workerOps)
	}
}

func TestTimeSeriesSampling(t *testing.T) {
	cfg := quickCfg("multiverse")
	cfg.Duration = 120 * time.Millisecond
	cfg.SampleEvery = 20 * time.Millisecond
	res := Run(cfg)
	if len(res.Series) < 3 {
		t.Fatalf("only %d samples", len(res.Series))
	}
	var total uint64
	for _, s := range res.Series {
		total += s.Ops
	}
	if total == 0 {
		t.Fatal("series recorded no ops")
	}
}

func TestPhasesSwitchWorkload(t *testing.T) {
	// Phase 1 has zero inserts/deletes; phase 2 is all inserts. The
	// structure must grow only during phase 2.
	cfg := quickCfg("dctl")
	cfg.Mix = workload.Mix{}
	cfg.Phases = []workload.Phase{
		{Seconds: 0.15, Mix: workload.Mix{}},               // searches only
		{Seconds: 0.15, Mix: workload.Mix{InsertPct: 1.0}}, // inserts only
	}
	res := Run(cfg)
	if res.OpsPerSec <= 0 {
		t.Fatal("phased run produced no throughput")
	}
	// The phases, not cfg.Duration (60ms here), set the measured window, and
	// ops/cpu-s must be taken over that window: the measured one is the
	// 0.3s the phases ask for plus at most a tick or two of stop latency.
	atPhaseSum := res.OpsPerSec * 0.3 / res.CPUSeconds
	if r := res.OpsPerCPUSec / atPhaseSum; r < 1 || r > 1.25 {
		t.Fatalf("OpsPerCPUSec = %.0f, want OpsPerSec × window / CPUSeconds = %.0f over the 0.3s phase window (ratio %.2f)",
			res.OpsPerCPUSec, atPhaseSum, r)
	}
}

func TestNewTMAllNames(t *testing.T) {
	names := append([]string{}, TMNames...)
	names = append(names, "multiverse-q", "multiverse-u", "multiverse-nobloom", "multiverse-nounversion")
	for _, name := range names {
		sys := NewTM(name, 1<<8)
		if sys == nil {
			t.Fatalf("NewTM(%q) returned nil", name)
		}
		if !strings.Contains(name, sys.Name()) && !strings.Contains(sys.Name(), "multiverse") {
			t.Fatalf("NewTM(%q).Name() = %q", name, sys.Name())
		}
		sys.Close()
	}
}

func TestNewDSAllNames(t *testing.T) {
	for _, name := range []string{"abtree", "avl", "extbst", "hashmap"} {
		if m := NewDS(name, 128); m == nil {
			t.Fatalf("NewDS(%q) returned nil", name)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	// Set equality: the registry is the paper's figures and table plus the
	// one experiment built from them (ablation). What measures the
	// shard/WAL/server/replica stack lives in benchmark/, not here.
	want := []string{"ablation", "fig1", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig6",
		"fig7", "fig8", "fig9", "tab1"}
	if got := ExperimentIDs(); !slices.Equal(got, want) {
		t.Errorf("experiment ids = %v, want exactly %v", got, want)
	}
}

func TestFig8HonoursTMList(t *testing.T) {
	s := Scale{Prefill: 256, Duration: 5 * time.Millisecond, Threads: []int{2}}
	for _, tc := range []struct {
		tms    []string
		blocks int
	}{
		{[]string{"multiverse", "dctl"}, 2}, // starts with TMNames[0] but is not the default list
		{TMNames, 5},                        // the default list selects Fig 8's own line-up
	} {
		var sb strings.Builder
		Experiments()["fig8"].Run(s, tc.tms, &sb)
		if got := strings.Count(sb.String(), "--- fig8 "); got != tc.blocks {
			t.Errorf("fig8 with -tm %v printed %d blocks, want %d", tc.tms, got, tc.blocks)
		}
	}
}

func TestTab1PrintsMatrix(t *testing.T) {
	var sb strings.Builder
	Experiments()["tab1"].Run(Quick(), TMNames, &sb)
	out := sb.String()
	for _, want := range []string{"Mode Q", "Mode U", "forced to", "unversioning"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 output missing %q", want)
		}
	}
}
