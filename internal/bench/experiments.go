package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/workload"
)

// Scale controls how big an experiment instance is. The paper runs 1M-key
// prefills for 20s × 5 trials on 64 cores; Quick() shrinks everything so
// the same code produces the same *shapes* on a small machine. Full-size
// runs are available through cmd/multibench flags.
type Scale struct {
	Prefill  int
	Duration time.Duration
	Threads  []int
	Trials   int
}

// Quick returns the default scaled-down experiment size.
func Quick() Scale {
	return Scale{
		Prefill:  8192,
		Duration: 150 * time.Millisecond,
		Threads:  []int{1, 2, 4, 8},
		Trials:   1,
	}
}

// TMNames lists the systems compared in the paper's plots, in plot order:
// the line-up of every figure that does not name its own.
var TMNames = []string{"multiverse", "dctl", "tl2", "tinystm", "norec"}

// Point is one plotted workload of a figure, at no particular size: Config
// resolves it against a Scale.
type Point struct {
	Label    string
	DS       string
	Ins, Del float64 // percent of operations; searches fill what Ins+Del+RQ leave
	RQ       float64 // percent of operations that are range (or size) queries
	// RQFrac is the keys one range query covers as a fraction of the
	// prefill (the paper's 10k of 1M is 0.01); set iff the point has range
	// queries.
	RQFrac      float64
	Zipf        bool // zipfian keys instead of uniform
	Updaters    int  // dedicated updater threads
	SizeQueries bool // the hashmap workload: RQ counts atomic size queries
	// Phases makes the point a time-varying run (Fig 8): each phase lasts
	// phaseLen × Scale.Duration under its own Ins/Del/RQ/RQFrac/Updaters,
	// only the top of the thread grid runs, and the row is preceded by the
	// throughput series.
	Phases []Point
}

// Fig 8's time axis: windows long enough for a phase to bite, sampled as
// the paper samples them.
const (
	phaseLen    = 8
	sampleEvery = 200 * time.Millisecond
)

func (p Point) mix(s Scale) workload.Mix {
	return workload.Mix{InsertPct: p.Ins / 100, DeletePct: p.Del / 100, RQPct: p.RQ / 100,
		RQSize: max(int(float64(s.Prefill)*p.RQFrac), 16)}
}

// Config resolves the point at scale s for one TM and worker-thread count.
func (p Point) Config(s Scale, tm string, threads int) Config {
	cfg := Config{
		TM: tm, DS: p.DS, Threads: threads, Updaters: p.Updaters,
		Mix: p.mix(s), Zipf: p.Zipf, SizeQueries: p.SizeQueries,
		Prefill: s.Prefill, Duration: s.Duration, Trials: s.Trials,
	}
	if p.Phases != nil {
		cfg.SampleEvery, cfg.Trials = sampleEvery, 1
	}
	for _, ph := range p.Phases {
		cfg.Phases = append(cfg.Phases, workload.Phase{
			Seconds: (phaseLen * s.Duration).Seconds(), Mix: ph.mix(s), Updaters: ph.Updaters})
	}
	return cfg
}

// Figure is one of the paper's tables or figures (or the ablation built
// from them): what it plots, never how to run it.
type Figure struct {
	ID, Title string
	// Of names the figure whose Points this one repeats on Threads, another
	// machine's thread grid (the appendix figures).
	Of      string
	Threads []int
	// TMs is the figure's own line-up; nil means TMNames.
	TMs    []string
	Text   string // printed as is (Table 1)
	Points []Point
}

// LineUp returns the TMs the figure compares when the caller names none.
func (f Figure) LineUp() []string {
	if f.TMs != nil {
		return f.TMs
	}
	return TMNames
}

// Fig 8's two kinds of interval.
var (
	quiet = Point{Ins: 10, Del: 10}
	rqy   = Point{Ins: 10, Del: 10, RQ: 0.01, RQFrac: 0.1, Updaters: 4}
)

// figures is the paper's evaluation (§5), one row per table or figure; it
// is the figure mapping, for cmd/multibench and the root BenchmarkFig alike.
// internal/bench/testdata/figures.golden pins its ids, titles and labels.
var figures = []Figure{
	{ID: "fig1", Title: "(a,b)-tree, 89.99% search / 0.01% RQ(1% of prefill) / 5% ins / 5% del, uniform, 0 updaters", Points: []Point{
		{Label: "fig1: abtree uniform 0.01% RQ, 0 updaters", DS: "abtree", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01},
	}},
	{ID: "fig6", Title: "(a,b)-tree grid: {0,16 updaters} × {0%,0.01% RQ} × {uniform,zipf} × {90%,80% search}", Points: []Point{
		{Label: "fig6: abtree uniform, 90% search, 0% RQ, 0 updaters", DS: "abtree", Ins: 5, Del: 5},
		{Label: "fig6: abtree uniform, 89.99% search, 0.01% RQ, 0 updaters", DS: "abtree", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01},
		{Label: "fig6: abtree uniform, 80% search, 0% RQ, 0 updaters", DS: "abtree", Ins: 10, Del: 10},
		{Label: "fig6: abtree uniform, 79.99% search, 0.01% RQ, 0 updaters", DS: "abtree", Ins: 10, Del: 10, RQ: 0.01, RQFrac: 0.01},
		{Label: "fig6: abtree zipf0.9, 90% search, 0% RQ, 0 updaters", DS: "abtree", Ins: 5, Del: 5, Zipf: true},
		{Label: "fig6: abtree zipf0.9, 89.99% search, 0.01% RQ, 0 updaters", DS: "abtree", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01, Zipf: true},
		{Label: "fig6: abtree zipf0.9, 80% search, 0% RQ, 0 updaters", DS: "abtree", Ins: 10, Del: 10, Zipf: true},
		{Label: "fig6: abtree zipf0.9, 79.99% search, 0.01% RQ, 0 updaters", DS: "abtree", Ins: 10, Del: 10, RQ: 0.01, RQFrac: 0.01, Zipf: true},
		{Label: "fig6: abtree uniform, 90% search, 0% RQ, 16 updaters", DS: "abtree", Ins: 5, Del: 5, Updaters: 16},
		{Label: "fig6: abtree uniform, 89.99% search, 0.01% RQ, 16 updaters", DS: "abtree", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01, Updaters: 16},
		{Label: "fig6: abtree uniform, 80% search, 0% RQ, 16 updaters", DS: "abtree", Ins: 10, Del: 10, Updaters: 16},
		{Label: "fig6: abtree uniform, 79.99% search, 0.01% RQ, 16 updaters", DS: "abtree", Ins: 10, Del: 10, RQ: 0.01, RQFrac: 0.01, Updaters: 16},
		{Label: "fig6: abtree zipf0.9, 90% search, 0% RQ, 16 updaters", DS: "abtree", Ins: 5, Del: 5, Zipf: true, Updaters: 16},
		{Label: "fig6: abtree zipf0.9, 89.99% search, 0.01% RQ, 16 updaters", DS: "abtree", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01, Zipf: true, Updaters: 16},
		{Label: "fig6: abtree zipf0.9, 80% search, 0% RQ, 16 updaters", DS: "abtree", Ins: 10, Del: 10, Zipf: true, Updaters: 16},
		{Label: "fig6: abtree zipf0.9, 79.99% search, 0.01% RQ, 16 updaters", DS: "abtree", Ins: 10, Del: 10, RQ: 0.01, RQFrac: 0.01, Zipf: true, Updaters: 16},
	}},
	// Large RQs (25% of prefill): the flawed no-updater setup lets every TM
	// "pass" because threads eventually all roll RQs together; dedicated
	// updaters expose the TMs with no real RQ support (rq/s and starved
	// columns).
	{ID: "fig7", Title: "flawed-workload demonstration: 10% RQ without vs with dedicated updaters", Points: []Point{
		{Label: "fig7: 10% large RQ, 0 updaters (RQ/s column is the tell)", DS: "abtree", Ins: 5, Del: 5, RQ: 10, RQFrac: 0.25},
		{Label: "fig7: 10% large RQ, 4 updaters (RQ/s column is the tell)", DS: "abtree", Ins: 5, Del: 5, RQ: 10, RQFrac: 0.25, Updaters: 4},
	}},
	// Intervals 1 and 3 have no RQs and no updaters, 2 and 4 add 0.01% large
	// RQs (10% of prefill) plus 4 dedicated updaters. The mode-pinned
	// Multiverse variants show what each mode alone would do.
	{ID: "fig8", Title: "time-varying workload: alternating no-RQ and large-RQ+updaters intervals, 200ms series",
		TMs: []string{"multiverse", "multiverse-q", "multiverse-u", "dctl", "tl2"}, Points: []Point{
			{Label: "fig8", DS: "abtree", Phases: []Point{quiet, rqy, quiet, rqy}},
		}},
	{ID: "fig9", Title: "max memory usage, (a,b)-tree, 0 updaters, {0%, 0.01% RQ}", Points: []Point{
		{Label: "fig9: memory (heapKB column), 0.00% RQ", DS: "abtree", Ins: 5, Del: 5},
		{Label: "fig9: memory (heapKB column), 0.01% RQ", DS: "abtree", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01},
	}},
	{ID: "fig10", Title: "throughput per CPU-second (energy proxy), (a,b)-tree, 16 updaters", Points: []Point{
		{Label: "fig10: ops per CPU-second (last column), 0.00% RQ", DS: "abtree", Ins: 5, Del: 5, Updaters: 16},
		{Label: "fig10: ops per CPU-second (last column), 0.01% RQ", DS: "abtree", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01, Updaters: 16},
	}},
	{ID: "fig11", Title: "AVL tree, {0,16 updaters} × {0%, 0.1%, 0.01% RQ}", Points: []Point{
		{Label: "fig11: avl 0.00% RQ, 0 updaters", DS: "avl", Ins: 5, Del: 5},
		{Label: "fig11: avl 0.10% RQ, 0 updaters", DS: "avl", Ins: 5, Del: 5, RQ: 0.1, RQFrac: 0.01},
		{Label: "fig11: avl 0.01% RQ, 0 updaters", DS: "avl", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01},
		{Label: "fig11: avl 0.00% RQ, 16 updaters", DS: "avl", Ins: 5, Del: 5, Updaters: 16},
		{Label: "fig11: avl 0.10% RQ, 16 updaters", DS: "avl", Ins: 5, Del: 5, RQ: 0.1, RQFrac: 0.01, Updaters: 16},
		{Label: "fig11: avl 0.01% RQ, 16 updaters", DS: "avl", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01, Updaters: 16},
	}},
	{ID: "fig12", Title: "external BST, {0,16 updaters} × {0%, 0.1%, 0.01% RQ}", Points: []Point{
		{Label: "fig12: extbst 0.00% RQ, 0 updaters", DS: "extbst", Ins: 5, Del: 5},
		{Label: "fig12: extbst 0.10% RQ, 0 updaters", DS: "extbst", Ins: 5, Del: 5, RQ: 0.1, RQFrac: 0.01},
		{Label: "fig12: extbst 0.01% RQ, 0 updaters", DS: "extbst", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01},
		{Label: "fig12: extbst 0.00% RQ, 16 updaters", DS: "extbst", Ins: 5, Del: 5, Updaters: 16},
		{Label: "fig12: extbst 0.10% RQ, 16 updaters", DS: "extbst", Ins: 5, Del: 5, RQ: 0.1, RQFrac: 0.01, Updaters: 16},
		{Label: "fig12: extbst 0.01% RQ, 16 updaters", DS: "extbst", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01, Updaters: 16},
	}},
	// Paper: 1M buckets prefilled to only 100k keys; the registry's hashmap
	// scales buckets to 10× capacity.
	{ID: "fig13", Title: "hashmap with size queries, {1,16 updaters} × {0%, 0.01% SQ}", Points: []Point{
		{Label: "fig13: hashmap 0.00% SQ, 1 updaters", DS: "hashmap", Ins: 5, Del: 5, Updaters: 1, SizeQueries: true},
		{Label: "fig13: hashmap 0.01% SQ, 1 updaters", DS: "hashmap", Ins: 5, Del: 5, RQ: 0.01, Updaters: 1, SizeQueries: true},
		{Label: "fig13: hashmap 0.00% SQ, 16 updaters", DS: "hashmap", Ins: 5, Del: 5, Updaters: 16, SizeQueries: true},
		{Label: "fig13: hashmap 0.01% SQ, 16 updaters", DS: "hashmap", Ins: 5, Del: 5, RQ: 0.01, Updaters: 16, SizeQueries: true},
	}},
	{ID: "fig15", Title: "AVL tree with large RQs (10% of prefill), {0,16 updaters}", Points: []Point{
		{Label: "fig15: avl RQ=10% of prefill, 0.10% RQ rate, 0 updaters", DS: "avl", Ins: 5, Del: 5, RQ: 0.1, RQFrac: 0.1},
		{Label: "fig15: avl RQ=10% of prefill, 0.01% RQ rate, 0 updaters", DS: "avl", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.1},
		{Label: "fig15: avl RQ=10% of prefill, 0.10% RQ rate, 16 updaters", DS: "avl", Ins: 5, Del: 5, RQ: 0.1, RQFrac: 0.1, Updaters: 16},
		{Label: "fig15: avl RQ=10% of prefill, 0.01% RQ rate, 16 updaters", DS: "avl", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.1, Updaters: 16},
	}},
	// The remaining appendix figures repeat fig6/fig11/fig12 workloads on
	// other machines (dual EPYC, single/quad Xeon). Without NUMA to vary,
	// they reduce to the same sweeps at the paper's other thread grids.
	{ID: "fig14", Title: "fig6 workloads at the dual-socket thread grid", Of: "fig6", Threads: []int{1, 4, 16}},
	{ID: "fig16", Title: "fig6 workloads at the Xeon thread grid", Of: "fig6", Threads: []int{1, 2, 6}},
	{ID: "fig17", Title: "fig11 workloads at the Xeon thread grid", Of: "fig11", Threads: []int{1, 2, 6}},
	{ID: "fig18", Title: "fig12 workloads at the Xeon thread grid", Of: "fig12", Threads: []int{1, 2, 6}},
	{ID: "fig19", Title: "fig6 workloads at the quad-Xeon thread grid", Of: "fig6", Threads: []int{1, 4, 12}},
	{ID: "fig20", Title: "fig11 workloads at the quad-Xeon thread grid", Of: "fig11", Threads: []int{1, 4, 12}},
	{ID: "fig21", Title: "fig12 workloads at the quad-Xeon thread grid", Of: "fig12", Threads: []int{1, 4, 12}},
	{ID: "tab1", Title: "TM mode behaviour matrix (verified by TestTable1ModeMatrix)", Text: table1Text},
	// What dynamic switching, the bloom filters and bounded version lists
	// each buy.
	{ID: "ablation", Title: "Multiverse ablations: pinned modes, no bloom filters, no unversioning",
		TMs: []string{"multiverse", "multiverse-q", "multiverse-u", "multiverse-nobloom", "multiverse-nounversion"}, Points: []Point{
			{Label: "ablation: abtree 0.01% RQ, 0 updaters", DS: "abtree", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01},
			{Label: "ablation: abtree 0.01% RQ, 8 updaters", DS: "abtree", Ins: 5, Del: 5, RQ: 0.01, RQFrac: 0.01, Updaters: 8},
		}},
}

// Figures returns the table sorted by id.
func Figures() []Figure {
	figs := slices.Clone(figures)
	slices.SortFunc(figs, func(a, b Figure) int { return strings.Compare(a.ID, b.ID) })
	return figs
}

// FigureByID finds one row of the table.
func FigureByID(id string) (Figure, bool) {
	i := slices.IndexFunc(figures, func(f Figure) bool { return f.ID == id })
	if i < 0 {
		return Figure{}, false
	}
	return figures[i], true
}

// Run sweeps the figure's points over tms × the thread grid at scale s and
// writes one Result row per run; a nil tms is the figure's own line-up.
func (f Figure) Run(s Scale, tms []string, w io.Writer) { f.sweep(s, tms, w, Run) }

// sweep is Run over any executor: the golden test renders the headers
// through it without running anything.
func (f Figure) sweep(s Scale, tms []string, w io.Writer, run func(Config) Result) {
	if tms == nil {
		tms = f.LineUp()
	}
	fmt.Fprint(w, f.Text)
	points := f.Points
	if f.Of != "" {
		of, _ := FigureByID(f.Of)
		points, s.Threads = of.Points, f.Threads
		fmt.Fprintf(w, "(%s = %s at thread grid %v; the hardware variation itself is not reproducible)\n", f.ID, f.Of, f.Threads)
	}
	for _, p := range points {
		threads := s.Threads
		if p.Phases == nil {
			fmt.Fprintf(w, "--- %s ---\n", p.Label)
		} else {
			threads = threads[len(threads)-1:]
		}
		for _, tm := range tms {
			for _, th := range threads {
				cfg := p.Config(s, tm, th)
				if p.Phases != nil {
					fmt.Fprintf(w, "--- %s %s (threads=%d) throughput per %v sample ---\n", p.Label, tm, th, cfg.SampleEvery)
				}
				res := run(cfg)
				for _, smp := range res.Series {
					fmt.Fprintf(w, "t=%6.2fs ops=%d\n", smp.At.Seconds(), smp.Ops)
				}
				fmt.Fprintln(w, res)
			}
		}
	}
}

const table1Text = `Table 1: TM mode behaviour (asserted by mvstm tests)
             | Mode Q                          | Mode QtoU (transient)  | Mode U                    | Mode UtoQ (transient)
Unversioned  | writes add versions iff         | writes forced to       | writes forced to          | writes forced to
             | address already versioned       | version                | version                   | version
Versioned    | reads version addresses         | reads version          | reads assume all          | versioned txns forced
             |                                 | (as Mode Q)            | addresses are versioned   | back to Mode Q behaviour
Bg thread    | unversioning enabled            | unversioning disabled  | unversioning disabled     | unversioning disabled
`
