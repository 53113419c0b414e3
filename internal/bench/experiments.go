package bench

import (
	"fmt"
	"io"
	"slices"
	"sort"
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

// rqKeys returns the paper-proportional range-query size: 1% of prefill
// (10k of 1M), or 10% for the large-RQ variants (100k of 1M).
func (s Scale) rqKeys(frac float64) int {
	n := int(float64(s.Prefill) * frac)
	if n < 16 {
		n = 16
	}
	return n
}

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment at the given scale, writing rows to w.
	Run func(s Scale, tms []string, w io.Writer)
}

// mixFor builds the paper's standard workload: searches fill whatever the
// given insert/delete/RQ percentages leave.
func mixFor(insPct, delPct, rqPct float64, rqSize int) workload.Mix {
	return workload.Mix{InsertPct: insPct / 100, DeletePct: delPct / 100, RQPct: rqPct / 100, RQSize: rqSize}
}

// sweep runs cfg for every TM × thread count and prints one row per run.
func sweep(s Scale, tms []string, w io.Writer, base Config, label string) {
	fmt.Fprintf(w, "--- %s ---\n", label)
	for _, tm := range tms {
		for _, th := range s.Threads {
			cfg := base
			cfg.TM = tm
			cfg.Threads = th
			cfg.Prefill = s.Prefill
			cfg.Duration = s.Duration
			cfg.Trials = s.Trials
			fmt.Fprintln(w, Run(cfg))
		}
	}
}

// Experiments returns every reproduction target keyed by experiment id
// (see DESIGN.md's per-experiment index and EXPERIMENTS.md for results).
func Experiments() map[string]Experiment {
	exps := map[string]Experiment{}
	add := func(e Experiment) { exps[e.ID] = e }

	add(Experiment{
		ID:    "fig1",
		Title: "(a,b)-tree, 89.99% search / 0.01% RQ(1% of prefill) / 5% ins / 5% del, uniform, 0 updaters",
		Run: func(s Scale, tms []string, w io.Writer) {
			sweep(s, tms, w, Config{
				DS:  "abtree",
				Mix: mixFor(5, 5, 0.01, s.rqKeys(0.01)),
			}, "fig1: abtree uniform 0.01% RQ, 0 updaters")
		},
	})

	add(Experiment{
		ID:    "fig6",
		Title: "(a,b)-tree grid: {0,16 updaters} × {0%,0.01% RQ} × {uniform,zipf} × {90%,80% search}",
		Run: func(s Scale, tms []string, w io.Writer) {
			for _, upd := range []int{0, 16} {
				for _, zipf := range []bool{false, true} {
					for _, row := range []struct {
						label    string
						ins, del float64
						rq       float64
					}{
						{"90% search, 0% RQ", 5, 5, 0},
						{"89.99% search, 0.01% RQ", 5, 5, 0.01},
						{"80% search, 0% RQ", 10, 10, 0},
						{"79.99% search, 0.01% RQ", 10, 10, 0.01},
					} {
						dist := "uniform"
						if zipf {
							dist = "zipf0.9"
						}
						sweep(s, tms, w, Config{
							DS:       "abtree",
							Mix:      mixFor(row.ins, row.del, row.rq, s.rqKeys(0.01)),
							Zipf:     zipf,
							Updaters: upd,
						}, fmt.Sprintf("fig6: abtree %s, %s, %d updaters", dist, row.label, upd))
					}
				}
			}
		},
	})

	add(Experiment{
		ID:    "fig7",
		Title: "flawed-workload demonstration: 10% RQ without vs with dedicated updaters",
		Run: func(s Scale, tms []string, w io.Writer) {
			// Large RQs (25% of prefill): the flawed no-updater setup
			// lets every TM "pass" because threads eventually all roll
			// RQs together; dedicated updaters expose the TMs with no
			// real RQ support (rq/s and starved columns).
			for _, upd := range []int{0, 4} {
				sweep(s, tms, w, Config{
					DS:       "abtree",
					Mix:      mixFor(5, 5, 10, s.rqKeys(0.25)),
					Updaters: upd,
				}, fmt.Sprintf("fig7: 10%% large RQ, %d updaters (RQ/s column is the tell)", upd))
			}
		},
	})

	add(Experiment{
		ID:    "fig8",
		Title: "time-varying workload: alternating no-RQ and large-RQ+updaters intervals, 200ms series",
		Run:   runFig8,
	})

	add(Experiment{
		ID:    "fig9",
		Title: "max memory usage, (a,b)-tree, 0 updaters, {0%, 0.01% RQ}",
		Run: func(s Scale, tms []string, w io.Writer) {
			for _, rq := range []float64{0, 0.01} {
				sweep(s, tms, w, Config{
					DS:  "abtree",
					Mix: mixFor(5, 5, rq, s.rqKeys(0.01)),
				}, fmt.Sprintf("fig9: memory (heapKB column), %.2f%% RQ", rq))
			}
		},
	})

	add(Experiment{
		ID:    "fig10",
		Title: "throughput per CPU-second (energy proxy), (a,b)-tree, 16 updaters",
		Run: func(s Scale, tms []string, w io.Writer) {
			for _, rq := range []float64{0, 0.01} {
				sweep(s, tms, w, Config{
					DS:       "abtree",
					Mix:      mixFor(5, 5, rq, s.rqKeys(0.01)),
					Updaters: 16,
				}, fmt.Sprintf("fig10: ops per CPU-second (last column), %.2f%% RQ", rq))
			}
		},
	})

	add(Experiment{
		ID:    "fig11",
		Title: "AVL tree, {0,16 updaters} × {0%, 0.1%, 0.01% RQ}",
		Run: func(s Scale, tms []string, w io.Writer) {
			for _, upd := range []int{0, 16} {
				for _, rq := range []float64{0, 0.1, 0.01} {
					sweep(s, tms, w, Config{
						DS:       "avl",
						Mix:      mixFor(5, 5, rq, s.rqKeys(0.01)),
						Updaters: upd,
					}, fmt.Sprintf("fig11: avl %.2f%% RQ, %d updaters", rq, upd))
				}
			}
		},
	})

	add(Experiment{
		ID:    "fig12",
		Title: "external BST, {0,16 updaters} × {0%, 0.1%, 0.01% RQ}",
		Run: func(s Scale, tms []string, w io.Writer) {
			for _, upd := range []int{0, 16} {
				for _, rq := range []float64{0, 0.1, 0.01} {
					sweep(s, tms, w, Config{
						DS:       "extbst",
						Mix:      mixFor(5, 5, rq, s.rqKeys(0.01)),
						Updaters: upd,
					}, fmt.Sprintf("fig12: extbst %.2f%% RQ, %d updaters", rq, upd))
				}
			}
		},
	})

	add(Experiment{
		ID:    "fig13",
		Title: "hashmap with size queries, {1,16 updaters} × {0%, 0.01% SQ}",
		Run: func(s Scale, tms []string, w io.Writer) {
			for _, upd := range []int{1, 16} {
				for _, rq := range []float64{0, 0.01} {
					sweep(s, tms, w, Config{
						DS:          "hashmap",
						Mix:         mixFor(5, 5, rq, 0),
						Updaters:    upd,
						SizeQueries: true,
						// Paper: 1M buckets prefilled to only 100k keys;
						// NewDS scales buckets to 10× capacity.
					}, fmt.Sprintf("fig13: hashmap %.2f%% SQ, %d updaters", rq, upd))
				}
			}
		},
	})

	add(Experiment{
		ID:    "fig15",
		Title: "AVL tree with large RQs (10% of prefill), {0,16 updaters}",
		Run: func(s Scale, tms []string, w io.Writer) {
			for _, upd := range []int{0, 16} {
				for _, rq := range []float64{0.1, 0.01} {
					sweep(s, tms, w, Config{
						DS:       "avl",
						Mix:      mixFor(5, 5, rq, s.rqKeys(0.1)),
						Updaters: upd,
					}, fmt.Sprintf("fig15: avl RQ=10%% of prefill, %.2f%% RQ rate, %d updaters", rq, upd))
				}
			}
		},
	})

	// The remaining appendix figures repeat fig6/fig11/fig12 workloads on
	// other machines (dual EPYC, single/quad Xeon). Without NUMA to vary,
	// they reduce to the same sweeps at the paper's other thread grids.
	alias := func(id, of, title string, threads []int) {
		src := exps[of]
		add(Experiment{ID: id, Title: title, Run: func(s Scale, tms []string, w io.Writer) {
			s.Threads = threads
			fmt.Fprintf(w, "(%s = %s at thread grid %v; hardware variation not reproducible — see DESIGN.md)\n", id, of, threads)
			src.Run(s, tms, w)
		}})
	}
	alias("fig14", "fig6", "fig6 workloads at the dual-socket thread grid", []int{1, 4, 16})
	alias("fig16", "fig6", "fig6 workloads at the Xeon thread grid", []int{1, 2, 6})
	alias("fig17", "fig11", "fig11 workloads at the Xeon thread grid", []int{1, 2, 6})
	alias("fig18", "fig12", "fig12 workloads at the Xeon thread grid", []int{1, 2, 6})
	alias("fig19", "fig6", "fig6 workloads at the quad-Xeon thread grid", []int{1, 4, 12})
	alias("fig20", "fig11", "fig11 workloads at the quad-Xeon thread grid", []int{1, 4, 12})
	alias("fig21", "fig12", "fig12 workloads at the quad-Xeon thread grid", []int{1, 4, 12})

	add(Experiment{
		ID:    "tab1",
		Title: "TM mode behaviour matrix (verified by TestTable1ModeMatrix)",
		Run: func(s Scale, tms []string, w io.Writer) {
			fmt.Fprint(w, table1Text)
		},
	})

	add(Experiment{
		ID:    "ablation",
		Title: "Multiverse ablations: pinned modes, no bloom filters, no unversioning",
		Run: func(s Scale, tms []string, w io.Writer) {
			variants := []string{"multiverse", "multiverse-q", "multiverse-u", "multiverse-nobloom", "multiverse-nounversion"}
			for _, upd := range []int{0, 8} {
				sweep(s, variants, w, Config{
					DS:       "abtree",
					Mix:      mixFor(5, 5, 0.01, s.rqKeys(0.01)),
					Updaters: upd,
				}, fmt.Sprintf("ablation: abtree 0.01%% RQ, %d updaters", upd))
			}
		},
	})

	return exps
}

// ExperimentIDs returns the sorted experiment ids.
func ExperimentIDs() []string {
	m := Experiments()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// runFig8 reproduces the time-varying experiment: 4 intervals where 1 and 3
// have no RQs and no updaters, and 2 and 4 add 0.01% large RQs (10% of
// prefill) plus 4 dedicated updaters. Mode-pinned Multiverse variants show
// what each mode alone would do (paper Fig 8).
func runFig8(s Scale, tms []string, w io.Writer) {
	fig8TMs := tms
	if slices.Equal(tms, TMNames) { // no custom TM list: the paper's Fig 8 line-up
		fig8TMs = []string{"multiverse", "multiverse-q", "multiverse-u", "dctl", "tl2"}
	}
	interval := (s.Duration * 8).Seconds() // longer windows so phases bite
	quiet := workload.Phase{Seconds: interval, Mix: mixFor(10, 10, 0, 0)}
	rqy := workload.Phase{
		Seconds:  interval,
		Mix:      mixFor(10, 10, 0.01, s.rqKeys(0.1)),
		Updaters: 4,
	}
	threads := s.Threads[len(s.Threads)-1]
	for _, tm := range fig8TMs {
		cfg := Config{
			TM:          tm,
			DS:          "abtree",
			Threads:     threads,
			Prefill:     s.Prefill,
			Trials:      1,
			SampleEvery: 200 * time.Millisecond,
			Phases:      []workload.Phase{quiet, rqy, quiet, rqy},
		}
		res := Run(cfg)
		fmt.Fprintf(w, "--- fig8 %s (threads=%d) throughput per 200ms sample ---\n", tm, threads)
		for _, smp := range res.Series {
			fmt.Fprintf(w, "t=%6.2fs ops=%d\n", smp.At.Seconds(), smp.Ops)
		}
		fmt.Fprintln(w, res)
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
