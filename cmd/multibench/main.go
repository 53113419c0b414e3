// Command multibench regenerates the paper's tables and figures.
//
// Usage:
//
//	multibench -exp fig1                       # quick-scale reproduction
//	multibench -exp fig6 -prefill 1000000 -dur 20s -threads 1,8,16,32,64
//	multibench -exp all                        # every experiment
//	multibench -list                           # available experiments
//	multibench -tm multiverse,dctl -exp fig11  # exactly these TMs, not the figure's own line-up
//
// The default scale is shrunk from the paper's (1M keys, 20s, 64 cores) so
// a full pass finishes on a laptop; shapes, not absolute numbers, are the
// reproduction target. The figure mapping is the table in
// internal/bench/experiments.go; `go test -bench 'BenchmarkFig/fig6/' .`
// walks the same table at a fixed small scale.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/registry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run resolves every name it was given before it runs anything: a bad flag,
// -threads entry, -tm name or -exp id is exit 2 with nothing on stdout but
// the -list output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("multibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (fig1, fig6..fig21, tab1, ablation) or 'all'")
		list    = fs.Bool("list", false, "list experiments and exit")
		tms     = fs.String("tm", "", "comma-separated TMs to compare (default: each figure's own line-up, "+strings.Join(bench.TMNames, ",")+" for most)")
		prefill = fs.Int("prefill", 0, "prefill size (default: quick scale)")
		dur     = fs.Duration("dur", 0, "measurement duration per point")
		threads = fs.String("threads", "", "comma-separated worker thread counts")
		trials  = fs.Int("trials", 0, "trials per point (paper: 5)")
	)
	if err := fs.Parse(args); err != nil { // the flag package has printed it
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	figs := bench.Figures()
	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, f := range figs {
			fmt.Fprintf(stdout, "  %-10s %s\n", f.ID, f.Title)
		}
		if *exp == "" {
			return 0
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
				fmt.Fprintf(stderr, "bad -threads entry %q\n", part)
				return 2
			}
			scale.Threads = append(scale.Threads, n)
		}
	}
	var tmList []string // nil: each figure's own line-up
	if *tms != "" {
		tmList = strings.Split(*tms, ",")
	}
	for _, tm := range tmList {
		sys, err := registry.NewTM(tm, registry.Params{LockTable: 64})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sys.Close()
	}
	if *exp != "all" {
		f, ok := bench.FigureByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", *exp)
			return 2
		}
		figs = []bench.Figure{f}
	}

	start := time.Now()
	for _, f := range figs {
		fmt.Fprintf(stdout, "=== %s: %s ===\n", f.ID, f.Title)
		f.Run(scale, tmList, stdout)
	}
	fmt.Fprintf(stdout, "(total %.1fs)\n", time.Since(start).Seconds())
	return 0
}
