// Command benchmark is the repository's benchmark: five named workloads, the
// end-to-end metrics a user of the system sees, and a per-layer cost ladder,
// all measured from outside internal/ by timing calls into each layer's
// public functions and reading the counters the layers already export.
// README.md describes every workload and metric; ../BENCHMARK.json is the
// same catalogue in the pipeline's schema.
//
// Run it from this directory (go run . -seed 1) or through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	quick     bool
	out       string
	repeat    bool
	catalogue string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the one-line JSON result (default: all five, full report)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every key and op stream (2 is reserved for verifying claims; do not tune on it)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per workload per pass")
	flag.IntVar(&o.trace, "trace", 0, "1: traced pass (per-layer metrics, out/trace.json); with -workload it replaces the end-to-end pass, without it follows it")
	flag.BoolVar(&o.quick, "quick", false, "catalogue check: tiny sizes, one 200 ms trial, no timing meaning")
	flag.StringVar(&o.out, "out", "", "also write the full result as JSON to this file")
	flag.BoolVar(&o.repeat, "repeat", false, "compare two result files of the same commit: -repeat a.json b.json")
	flag.StringVar(&o.catalogue, "catalogue", "", "print the metric catalogue as 'json' (BENCHMARK.json) or 'md' (README table) and exit")
	flag.Parse()
	if err := run(o, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report is the full result of one invocation, the shape of -out files and of
// baseline.json.
type report struct {
	Meta      map[string]string          `json:"meta"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func run(o options, args []string, w io.Writer) error {
	switch {
	case o.catalogue == "json":
		b, err := benchmarkJSON(int(o.seconds))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
		return nil
	case o.catalogue == "md":
		fmt.Fprint(w, catalogueMarkdown())
		return nil
	case o.repeat:
		if len(args) != 2 {
			return fmt.Errorf("-repeat wants two result files")
		}
		return repeatCompare(args[0], args[1], w)
	}
	names := workloadNames
	if o.workload != "" {
		if _, ok := workloadDefs[o.workload]; !ok {
			return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
		}
		names = []string{o.workload}
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("out", "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	rep := report{Meta: machineFacts(tmp), Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*workloadResult{}}
	fmt.Fprintf(w, "# benchmark seed=%d seconds=%g", o.seed, o.seconds)
	for _, k := range sortedKeys(rep.Meta) {
		fmt.Fprintf(w, " %s=%s", k, rep.Meta[k])
	}
	fmt.Fprintln(w)

	p := planFor(o.seconds, o.quick)
	rung := time.Duration(o.seconds / 40 * float64(time.Second))
	if o.quick {
		rung = 50 * time.Millisecond
	}
	endToEndPass := o.workload == "" || o.trace == 0
	var spans []span
	for _, name := range names {
		e := &env{seed: o.seed, tmp: tmp, quick: o.quick, wlIdx: indexOf(workloadNames, name), rung: rung}
		res := &workloadResult{Correct: true}
		rep.Workloads[name] = res
		if endToEndPass {
			r, err := runEndToEnd(name, e, p)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			*res = r
			printValues(w, name, "end-to-end", endToEnd, res.EndToEnd)
			fmt.Fprintf(w, "  machine: memory probe %.1f ns a step (nominal %.0f), core probe %.3f ns\n",
				median(res.Machine["mem_probe_ns"]), nominalStepNs, median(res.Machine["alu_probe_ns"]))
		}
		if o.trace == 1 {
			r, err := runTraced(name, e, p)
			if err != nil {
				return fmt.Errorf("%s (traced): %w", name, err)
			}
			res.PerLayer = r.PerLayer
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			for _, s := range r.spans {
				s.Workload = name
				spans = append(spans, s)
			}
			printValues(w, name, "per-layer (traced pass)", perLayer, res.PerLayer)
		}
		fmt.Fprintf(w, "%s: oracle ok, attempted=%d failed=%d\n\n", name, res.Attempted, res.Failed)
	}
	if o.trace == 1 {
		path := filepath.Join("out", "trace.json")
		if err := writeTrace(path, traceFile{Seed: o.seed, Spans: spans}); err != nil {
			return err
		}
		fmt.Fprintf(w, "# wrote %d spans to %s\n", len(spans), path)
	}
	if o.out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.workload != "" {
		return resultLine(w, o, rep.Workloads[o.workload])
	}
	return nil
}

// resultLine prints the one-line JSON object the pipeline reads: every
// end-to-end metric on an untraced run, every per-layer metric on a traced
// one (0 where the workload bypasses the layer).
func resultLine(w io.Writer, o options, res *workloadResult) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	cat, got := endToEnd, res.EndToEnd
	if o.trace == 1 {
		cat, got = perLayer, res.PerLayer
	}
	for _, m := range cat {
		v := got[m.name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		line.Metrics[m.name] = mv{v, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

// printValues prints the catalogue's rows that the workload measured.
func printValues(w io.Writer, workload, title string, cat []metric, got map[string]value) {
	fmt.Fprintf(w, "%s  %s\n", workload, title)
	for _, m := range cat {
		v, ok := got[m.name]
		if !ok {
			continue
		}
		if v.N > 1 {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s min %.4f max %.4f n=%d\n", m.name, v.Value, m.unit, v.Min, v.Max, v.N)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.name, v.Value, m.unit)
		}
	}
}

// machineFacts are the facts the numbers depend on.
func machineFacts(dir string) map[string]string {
	facts := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"wal_fs":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				facts["commit"] = s.Value
			}
		}
	}
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		if n, ok := names[int64(st.Type)]; ok {
			facts["wal_fs"] = n
		} else {
			facts["wal_fs"] = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return facts
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
