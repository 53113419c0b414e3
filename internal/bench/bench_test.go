package bench

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/registry"
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
	// Set equality: the table is the paper's figures and table plus the
	// one experiment built from them (ablation). What measures the
	// shard/WAL/server/replica stack lives in benchmark/, not here.
	want := []string{"ablation", "fig1", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig6",
		"fig7", "fig8", "fig9", "tab1"}
	var got []string
	seen := map[[2]string]bool{}
	var checkPoint func(id string, p Point)
	checkPoint = func(id string, p Point) {
		// A range-query size is stated iff the point issues range queries,
		// and always as a share of the prefill.
		if wantFrac := p.RQ > 0 && !p.SizeQueries; wantFrac != (p.RQFrac > 0) || p.RQFrac < 0 || p.RQFrac > 1 {
			t.Errorf("%s %q: RQ=%v%% SizeQueries=%v with RQFrac=%v, want a fraction in (0, 1] iff it has range queries", id, p.Label, p.RQ, p.SizeQueries, p.RQFrac)
		}
		for _, ph := range p.Phases {
			checkPoint(id, ph)
		}
	}
	for _, f := range Figures() {
		got = append(got, f.ID)
		for _, tm := range f.LineUp() {
			if !slices.Contains(registry.TMNames(), tm) {
				t.Errorf("%s: line-up TM %q is not in the registry", f.ID, tm)
			}
		}
		if of, ok := FigureByID(f.Of); f.Of != "" && (!ok || of.Of != "" || len(of.Points) == 0 || len(f.Points) != 0 || len(f.Threads) == 0) {
			t.Errorf("%s: alias of %q needs an existing figure with points of its own, none here, and a thread grid", f.ID, f.Of)
		}
		for _, p := range f.Points {
			if seen[[2]string{f.ID, p.Label}] {
				t.Errorf("%s: label %q twice", f.ID, p.Label)
			}
			seen[[2]string{f.ID, p.Label}] = true
			if _, err := registry.NewDS(p.DS, 16); err != nil {
				t.Errorf("%s %q: %v", f.ID, p.Label, err)
			}
			checkPoint(f.ID, p)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("figure ids = %v, want exactly %v", got, want)
	}
	// The drift the second copy in the root bench_test.go had is resolved
	// to these values: Fig 7's range queries cover a quarter of the prefill.
	fig7, _ := FigureByID("fig7")
	for _, p := range fig7.Points {
		if cfg := p.Config(Scale{Prefill: 4096}, "multiverse", 4); cfg.Mix.RQSize != 1024 || cfg.Mix.RQPct != 0.10 {
			t.Errorf("%q at prefill 4096: %v%% RQs of %d keys, want 10%% of 1024", p.Label, 100*cfg.Mix.RQPct, cfg.Mix.RQSize)
		}
	}
}

// TestFiguresGolden pins every figure id, title and point label to what the
// parent of the table (PR 23's per-figure closures) printed for
// `multibench -exp all -dur 1ms -prefill 64 -threads 1`, sorted. The lines
// come out of the runner multibench uses, with nothing run.
func TestFiguresGolden(t *testing.T) {
	var sb strings.Builder
	for _, f := range Figures() {
		fmt.Fprintf(&sb, "=== %s: %s ===\n", f.ID, f.Title)
		f.sweep(Scale{Prefill: 64, Duration: time.Millisecond, Threads: []int{1}}, nil, &sb,
			func(cfg Config) Result { return Result{Config: cfg} })
	}
	var got []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "=== ") || strings.HasPrefix(line, "--- ") {
			got = append(got, line)
		}
	}
	slices.Sort(got)
	golden, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n"); !slices.Equal(got, want) {
		t.Errorf("the table renders\n%s\nwant testdata/figures.golden", strings.Join(got, "\n"))
	}
}

// TestFig8HonoursTMList: no -tm means the figure's own line-up, a -tm means
// exactly that list, for every figure.
func TestFig8HonoursTMList(t *testing.T) {
	s := Scale{Prefill: 256, Duration: 5 * time.Millisecond, Threads: []int{2}}
	fig8, _ := FigureByID("fig8") // testdata/figures.golden pins its line-up
	ablation, _ := FigureByID("ablation")
	for _, tc := range []struct {
		id   string
		tms  []string
		want []string // the TM of each run, in order
	}{
		{"fig8", []string{"multiverse", "dctl"}, []string{"multiverse", "dctl"}},
		{"fig8", nil, fig8.TMs},
		{"fig8", slices.Clone(TMNames), TMNames},                     // the default order, spelled out, is still a list
		{"ablation", nil, slices.Concat(ablation.TMs, ablation.TMs)}, // two points
		{"ablation", []string{"dctl"}, []string{"dctl", "dctl"}},
		{"fig1", nil, TMNames},
	} {
		f, _ := FigureByID(tc.id)
		var got []string
		f.sweep(s, tc.tms, io.Discard, func(cfg Config) Result {
			got = append(got, cfg.TM)
			return Result{Config: cfg}
		})
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s with -tm %v ran %v, want %v", tc.id, tc.tms, got, tc.want)
		}
	}
}

func TestTab1PrintsMatrix(t *testing.T) {
	tab1, _ := FigureByID("tab1")
	var sb strings.Builder
	tab1.Run(Quick(), nil, &sb)
	out := sb.String()
	for _, want := range []string{"Mode Q", "Mode U", "forced to", "unversioning"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 output missing %q", want)
		}
	}
}
