// Command multibench regenerates the paper's tables and figures.
//
// Usage:
//
//	multibench -exp fig1                       # quick-scale reproduction
//	multibench -exp fig6 -prefill 1000000 -dur 20s -threads 1,8,16,32,64
//	multibench -exp all                        # every experiment
//	multibench -list                           # available experiments
//	multibench -tm multiverse,dctl -exp fig11  # restrict compared TMs
//
// The default scale is shrunk from the paper's (1M keys, 20s, 64 cores) so
// a full pass finishes on a laptop; shapes, not absolute numbers, are the
// reproduction target (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig1, fig6..fig21, tab1, ablation) or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		tms     = flag.String("tm", strings.Join(bench.TMNames, ","), "comma-separated TMs to compare")
		prefill = flag.Int("prefill", 0, "prefill size (default: quick scale)")
		dur     = flag.Duration("dur", 0, "measurement duration per point")
		threads = flag.String("threads", "", "comma-separated worker thread counts")
		trials  = flag.Int("trials", 0, "trials per point (paper: 5)")
	)
	flag.Parse()

	exps := bench.Experiments()
	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range bench.ExperimentIDs() {
			fmt.Printf("  %-10s %s\n", id, exps[id].Title)
		}
		if *exp == "" {
			os.Exit(0)
		}
	}

	scale := bench.Quick()
	if *prefill > 0 {
		scale.Prefill = *prefill
	}
	if *dur > 0 {
		scale.Duration = *dur
	}
	if *trials > 0 {
		scale.Trials = *trials
	}
	if *threads != "" {
		scale.Threads = nil
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -threads entry %q\n", part)
				os.Exit(2)
			}
			scale.Threads = append(scale.Threads, n)
		}
	}
	tmList := strings.Split(*tms, ",")

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.ExperimentIDs()
	}
	start := time.Now()
	for _, id := range ids {
		e, ok := exps[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		e.Run(scale, tmList, os.Stdout)
	}
	fmt.Printf("(total %.1fs)\n", time.Since(start).Seconds())
}
