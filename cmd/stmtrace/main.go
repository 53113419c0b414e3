// Command stmtrace is the waterfall debugger over the trace span ring: it
// fetches sampled end-to-end traces from a running stmserve (wire OpTrace)
// or a saved dump file and renders them as text waterfalls, one bar per
// stage, plus a latency-attribution summary and the traces that burned the
// most aborted attempts.
//
//	stmtrace -addr 127.0.0.1:7707              # fetch and render live traces
//	stmtrace -addr 127.0.0.1:7707 -warm 64     # drive 64 inserts first
//	stmtrace -file trace.json                  # render a saved /debug/obs/trace dump
//
// A trace is *complete* when it covers the full server chain — decode,
// execute, and ack-write spans all present. -min-complete N exits nonzero
// unless at least N complete traces rendered, which is what the CI smoke
// step asserts. The server must run with -trace-every > 0; against a server
// that is not sampling, stmtrace reports zero traces (and fails under
// -min-complete).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// serverStages is the request's serial stage chain on the leader; summed per
// trace they should account for (nearly all of) the total span. Attempt, WAL
// and replica spans overlap execute/sync-wait and are shown in waterfalls
// but excluded from the attribution sum to avoid double counting.
var serverStages = []string{"queue-wait", "decode", "execute", "ack-stage", "sync-wait", "ack-write"}

type trace struct {
	id    uint64
	spans []obs.SpanJSON // sorted by start
}

func main() {
	addr := flag.String("addr", "", "stmserve address to fetch traces from (wire OpTrace)")
	file := flag.String("file", "", "render a saved trace dump JSON file instead of fetching")
	warm := flag.Int("warm", 0, "drive this many insert requests before fetching (live mode only)")
	maxTraces := flag.Int("max-traces", 10, "waterfalls to render (most recent first)")
	top := flag.Int("top", 5, "abort-retry traces to list")
	minComplete := flag.Int("min-complete", 0, "exit nonzero unless at least this many complete traces rendered")
	timeout := flag.Duration("timeout", 10*time.Second, "bound on the live warmup + fetch (dial has its own bound)")
	flag.Parse()

	if (*addr == "") == (*file == "") {
		fmt.Fprintln(os.Stderr, "stmtrace: exactly one of -addr or -file is required")
		os.Exit(2)
	}

	var blob []byte
	var err error
	if *file != "" {
		blob, err = os.ReadFile(*file)
	} else {
		blob, err = fetchLive(*addr, *warm, *timeout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stmtrace: %v\n", err)
		os.Exit(1)
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		fmt.Fprintf(os.Stderr, "stmtrace: parse dump: %v\n", err)
		os.Exit(1)
	}
	if dump.Every == 0 {
		fmt.Println("stmtrace: tracing is off on the target (run with -trace-every > 0)")
	}

	traces := group(dump.Spans)
	complete := 0
	for _, t := range traces {
		if isComplete(t) {
			complete++
		}
	}
	fmt.Printf("stmtrace: %d spans, %d traces (%d complete), sampling 1/%d\n",
		len(dump.Spans), len(traces), complete, max(dump.Every, 1))

	// Most recent traces last in ring order; render the newest first.
	shown := 0
	for i := len(traces) - 1; i >= 0 && shown < *maxTraces; i-- {
		if !isComplete(traces[i]) {
			continue
		}
		fmt.Println()
		waterfall(traces[i])
		shown++
	}

	attribution(traces)
	abortTraces(traces, *top)

	if complete < *minComplete {
		fmt.Fprintf(os.Stderr, "stmtrace: only %d complete traces (want ≥ %d)\n", complete, *minComplete)
		os.Exit(1)
	}
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// fetchLive drives the optional warmup traffic and fetches the trace dump,
// bounded by d: a peer that accepts the connection but never answers the
// wire protocol (wrong port, hung server) must surface as a transport error,
// not an indefinite hang. On timeout the process exits immediately, so the
// connection is left for the OS to close.
func fetchLive(addr string, warm int, d time.Duration) ([]byte, error) {
	cl, err := client.Dial(addr, client.Options{Timeout: d})
	if err != nil {
		return nil, err
	}
	type result struct {
		blob []byte
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		for i := 1; i <= warm; i++ {
			if _, err := cl.Insert(uint64(i), uint64(i)); err != nil {
				ch <- result{nil, fmt.Errorf("warmup insert %d: %w", i, err)}
				return
			}
		}
		blob, err := cl.TraceBlob()
		if errors.Is(err, client.ErrTooLarge) {
			err = fmt.Errorf("%w: the span ring does not fit one wire frame — restart stmserve with a lower -trace-ring, or scrape /debug/obs/trace over its -obs port", err)
		}
		ch <- result{blob, err}
	}()
	select {
	case r := <-ch:
		cl.Close()
		return r.blob, r.err
	case <-time.After(d):
		return nil, fmt.Errorf("no response within %v (not a stmserve wire port, or server hung?)", d)
	}
}

// group partitions spans by trace id, ordered by each trace's first
// appearance in the ring (ring order ≈ age).
func group(spans []obs.SpanJSON) []*trace {
	byID := map[uint64]*trace{}
	var out []*trace
	for _, s := range spans {
		t := byID[s.Trace]
		if t == nil {
			t = &trace{id: s.Trace}
			byID[s.Trace] = t
			out = append(out, t)
		}
		t.spans = append(t.spans, s)
	}
	for _, t := range out {
		sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].StartNs < t.spans[j].StartNs })
	}
	return out
}

func isComplete(t *trace) bool {
	need := map[string]bool{"decode": false, "execute": false, "ack-write": false}
	for _, s := range t.spans {
		if _, ok := need[s.Stage]; ok {
			need[s.Stage] = true
		}
	}
	return need["decode"] && need["execute"] && need["ack-write"]
}

// opOf recovers the wire op from the decode/execute span's src field.
func opOf(t *trace) string {
	for _, s := range t.spans {
		if s.Stage == "decode" || s.Stage == "execute" {
			return wire.Op(s.Src).String()
		}
	}
	return "?"
}

func waterfall(t *trace) {
	t0, tEnd := t.spans[0].StartNs, int64(0)
	for _, s := range t.spans {
		if end := s.StartNs + s.DurNs; end > tEnd {
			tEnd = end
		}
	}
	total := tEnd - t0
	if total <= 0 {
		total = 1
	}
	fmt.Printf("trace %d  op=%s  total=%v\n", t.id, opOf(t), time.Duration(total))
	const width = 48
	for _, s := range t.spans {
		startCol := int((s.StartNs - t0) * width / total)
		durCols := int(s.DurNs * width / total)
		if startCol < 0 { // replica span shifted before t0 by clock skew
			startCol = 0
		}
		if startCol > width {
			startCol = width
		}
		if durCols < 1 {
			durCols = 1
		}
		if startCol+durCols > width {
			durCols = width - startCol
			if durCols < 1 {
				durCols = 1
				startCol = width - 1
			}
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat("#", durCols) +
			strings.Repeat(" ", width-startCol-durCols)
		label := s.Stage
		switch s.Stage {
		case "attempt":
			if s.B == 0 {
				label = fmt.Sprintf("attempt %d ok", s.A)
			} else {
				label = fmt.Sprintf("attempt %d %s", s.A, obs.AbortReason(s.B-1))
			}
		case "wal-append", "wal-coalesce", "wal-fsync", "replica-apply":
			label = fmt.Sprintf("%s s%d", s.Stage, s.Src)
		}
		fmt.Printf("  %-22s %10v  |%s|\n", label, time.Duration(s.DurNs), bar)
	}
}

// attribution sums the serial server stages across complete traces and
// reports each stage's share of the summed end-to-end totals.
func attribution(traces []*trace) {
	stageNs := map[string]int64{}
	var totalNs, accounted int64
	n := 0
	for _, t := range traces {
		if !isComplete(t) {
			continue
		}
		n++
		for _, s := range t.spans {
			if s.Stage == "total" {
				totalNs += s.DurNs
				continue
			}
			for _, st := range serverStages {
				if s.Stage == st {
					stageNs[st] += s.DurNs
					accounted += s.DurNs
					break
				}
			}
		}
	}
	if n == 0 || totalNs == 0 {
		return
	}
	fmt.Printf("\nlatency attribution over %d complete traces (server chain):\n", n)
	for _, st := range serverStages {
		if ns := stageNs[st]; ns > 0 {
			fmt.Printf("  %-12s %12v  %5.1f%%\n", st, time.Duration(ns), 100*float64(ns)/float64(totalNs))
		}
	}
	fmt.Printf("  %-12s %12v  %5.1f%%  (writer/queue handoff gaps)\n", "unattributed",
		time.Duration(totalNs-accounted), 100*float64(totalNs-accounted)/float64(totalNs))
}

// abortTraces lists the traces that burned the most aborted attempts — the
// waterfalls worth pulling up when abort rates spike.
func abortTraces(traces []*trace, top int) {
	type at struct {
		t      *trace
		aborts int
	}
	var ranked []at
	for _, t := range traces {
		n := 0
		for _, s := range t.spans {
			if s.Stage == "attempt" && s.B != 0 {
				n++
			}
		}
		if n > 0 {
			ranked = append(ranked, at{t, n})
		}
	}
	if len(ranked) == 0 {
		return
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].aborts > ranked[j].aborts })
	if len(ranked) > top {
		ranked = ranked[:top]
	}
	fmt.Printf("\ntop abort-retry traces:\n")
	for _, r := range ranked {
		reasons := map[string]int{}
		for _, s := range r.t.spans {
			if s.Stage == "attempt" && s.B != 0 {
				reasons[obs.AbortReason(s.B-1).String()]++
			}
		}
		parts := make([]string, 0, len(reasons))
		for name, c := range reasons {
			parts = append(parts, fmt.Sprintf("%s×%d", name, c))
		}
		sort.Strings(parts)
		fmt.Printf("  trace %-12d op=%-8s aborted attempts=%d (%s)\n",
			r.t.id, opOf(r.t), r.aborts, strings.Join(parts, ", "))
	}
}
