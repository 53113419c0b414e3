package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

// traceCmd is the waterfall debugger over the span ring: it renders sampled
// end-to-end traces as text waterfalls, one bar per stage, plus a
// latency-attribution summary and the traces that burned the most aborted
// attempts. A trace is *complete* when it covers the full server chain —
// decode, execute and ack-write spans all present; -min-complete N fails
// unless at least N complete traces rendered, which is what the CI smoke
// step asserts. The server must run with -trace-every > 0; against one that
// is not sampling, trace reports zero traces (and fails under -min-complete).
func traceCmd(src *source, fs *flag.FlagSet) func(io.Writer) error {
	fs.DurationVar(&src.timeout, "timeout", 10*time.Second, "bound on the dial and on the live warmup + fetch")
	warm := fs.Int("warm", 0, "drive this many insert requests before fetching (live mode only)")
	maxTraces := fs.Int("max-traces", 10, "waterfalls to render (most recent first)")
	top := fs.Int("top", 5, "abort-retry traces to list")
	minComplete := fs.Int("min-complete", 0, "exit nonzero unless at least this many complete traces rendered")
	return func(w io.Writer) error {
		var dump obs.TraceDump
		err := src.load(func(cl *client.Client) ([]byte, error) {
			for i := 1; i <= *warm; i++ {
				if _, err := cl.Insert(uint64(i), uint64(i)); err != nil {
					return nil, fmt.Errorf("warmup insert %d: %w", i, err)
				}
			}
			blob, err := cl.TraceBlob()
			if errors.Is(err, client.ErrTooLarge) {
				err = fmt.Errorf("%w: the span ring does not fit one wire frame — restart stmserve with a lower -trace-ring, or scrape /debug/obs/trace over its -obs port", err)
			}
			return blob, err
		}, &dump)
		if err != nil {
			return err
		}
		if dump.Every == 0 {
			fmt.Fprintln(w, "stmctl trace: tracing is off on the target (run with -trace-every > 0)")
		}

		traces := group(dump.Spans)
		complete := 0
		for _, t := range traces {
			if isComplete(t) {
				complete++
			}
		}
		fmt.Fprintf(w, "stmctl trace: %d spans, %d traces (%d complete), sampling 1/%d\n",
			len(dump.Spans), len(traces), complete, max(dump.Every, 1))

		// Most recent traces last in ring order; render the newest first.
		shown := 0
		for i := len(traces) - 1; i >= 0 && shown < *maxTraces; i-- {
			if isComplete(traces[i]) {
				fmt.Fprintln(w)
				waterfall(w, traces[i])
				shown++
			}
		}
		attribution(w, traces)
		abortTraces(w, traces, *top)

		if complete < *minComplete {
			return fmt.Errorf("only %d complete traces (want ≥ %d)", complete, *minComplete)
		}
		return nil
	}
}

// group partitions spans by trace id, ordered by each trace's first
// appearance in the ring (ring order ≈ age).
func group(all []obs.SpanJSON) []*trace {
	byID := map[uint64]*trace{}
	var out []*trace
	for _, s := range all {
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
	have := map[string]bool{}
	for _, s := range t.spans {
		have[s.Stage] = true
	}
	return have["decode"] && have["execute"] && have["ack-write"]
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

func waterfall(w io.Writer, t *trace) {
	t0, tEnd := t.spans[0].StartNs, int64(0)
	for _, s := range t.spans {
		tEnd = max(tEnd, s.StartNs+s.DurNs)
	}
	total := max(tEnd-t0, 1)
	fmt.Fprintf(w, "trace %d  op=%s  total=%v\n", t.id, opOf(t), time.Duration(total))
	const width = 48
	for _, s := range t.spans {
		// A replica span may be shifted before t0 by clock skew; every bar is
		// at least one column wide and ends inside the frame.
		startCol := min(max(int((s.StartNs-t0)*width/total), 0), width-1)
		durCols := min(max(int(s.DurNs*width/total), 1), width-startCol)
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
		fmt.Fprintf(w, "  %-22s %10v  |%s|\n", label, time.Duration(s.DurNs), bar)
	}
}

// attribution sums the serial server stages across complete traces and
// reports each stage's share of the summed end-to-end totals.
func attribution(w io.Writer, traces []*trace) {
	stageNs := map[string]int64{}
	n := 0
	for _, t := range traces {
		if !isComplete(t) {
			continue
		}
		n++
		for _, s := range t.spans {
			stageNs[s.Stage] += s.DurNs
		}
	}
	totalNs := stageNs["total"]
	if n == 0 || totalNs == 0 {
		return
	}
	fmt.Fprintf(w, "\nlatency attribution over %d complete traces (server chain):\n", n)
	rest := totalNs
	for _, st := range serverStages {
		ns := stageNs[st]
		rest -= ns
		if ns > 0 {
			fmt.Fprintf(w, "  %-12s %12v  %5.1f%%\n", st, time.Duration(ns), 100*float64(ns)/float64(totalNs))
		}
	}
	fmt.Fprintf(w, "  %-12s %12v  %5.1f%%  (writer/queue handoff gaps)\n", "unattributed",
		time.Duration(rest), 100*float64(rest)/float64(totalNs))
}

// abortTraces lists the traces that burned the most aborted attempts — the
// waterfalls worth pulling up when abort rates spike.
func abortTraces(w io.Writer, traces []*trace, top int) {
	type ranked struct {
		t       *trace
		aborts  int
		reasons map[string]int
	}
	var rank []ranked
	for _, t := range traces {
		r := ranked{t: t, reasons: map[string]int{}}
		for _, s := range t.spans {
			if s.Stage == "attempt" && s.B != 0 {
				r.aborts++
				r.reasons[obs.AbortReason(s.B-1).String()]++
			}
		}
		if r.aborts > 0 {
			rank = append(rank, r)
		}
	}
	if len(rank) == 0 {
		return
	}
	sort.SliceStable(rank, func(i, j int) bool { return rank[i].aborts > rank[j].aborts })
	fmt.Fprintf(w, "\ntop abort-retry traces:\n")
	for _, r := range rank[:min(top, len(rank))] {
		parts := make([]string, 0, len(r.reasons))
		for name, c := range r.reasons {
			parts = append(parts, fmt.Sprintf("%s×%d", name, c))
		}
		sort.Strings(parts)
		fmt.Fprintf(w, "  trace %-12d op=%-8s aborted attempts=%d (%s)\n",
			r.t.id, opOf(r.t), r.aborts, strings.Join(parts, ", "))
	}
}
