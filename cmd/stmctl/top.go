package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server/client"
)

// topCmd is the terminal dashboard: WAL health and fsync activity, checkpoints
// served and starved, the server's ack batching, replica lag when the target
// is a follower, per-shard commit throughput, the abort-reason breakdown,
// per-op latency quantiles and — when the server samples traces
// (-trace-every) — the per-stage breakdown from the trace.stage.*
// histograms. In live mode the screen redraws every -every; rates are deltas
// between consecutive snapshots. -once renders a single frame without
// clearing the screen — the mode CI smoke tests parse.
func topCmd(src *source, fs *flag.FlagSet) func(io.Writer) error {
	fs.DurationVar(&src.timeout, "timeout", 5*time.Second, "bound on the dial and on each stats fetch in live mode")
	every := fs.Duration("every", time.Second, "poll/redraw interval in live mode")
	once := fs.Bool("once", false, "render one frame and exit (no screen clearing)")
	return func(w io.Writer) error {
		f := frame{w: w}
		var at time.Time // when f.prev was fetched
		for {
			f.cur = obs.Snapshot{} // Unmarshal would merge into the old maps
			if err := src.load((*client.Client).StatsBlob, &f.cur); err != nil {
				return err
			}
			now := time.Now()
			if *once || src.file != "" {
				f.render()
				return nil
			}
			if !at.IsZero() {
				f.dt = now.Sub(at)
				fmt.Fprint(w, "\x1b[2J\x1b[H") // clear screen, home cursor
				f.render()
			}
			f.prev, at = f.cur, now
			time.Sleep(*every)
		}
	}
}

// kind is how a signal's value is shown.
type kind uint8

const (
	text  kind = iota // Text[name]
	total             // Counters[name]
	rate              // Counters[name] per second since the previous frame; the total on a first frame
	dur               // Counters[name], nanoseconds, as a duration
	ratio             // Counters[name] / Counters[over]
)

type signal struct {
	name string
	kind kind
	over string
}

// pane is one block of the frame. Without a prefix it is a line of
// exact-name signals, shown when the first of them is present. "shard." is a
// table with a row per shard, its signals the columns, named relative to
// "shard.N.". Any other prefix is a table with a row per non-zero counter or
// non-empty histogram registered under it.
type pane struct {
	header  string // printed above a table that has rows
	format  string // one line or row: a %s per signal (after the shard id), or the name and a counter's value / a histogram's count, p50, p99, max
	prefix  string
	signals []signal
}

// panes is every registry name the renderer reads, in screen order. render
// ranges over it and reads nothing else, and TestTopSignalsRegistered boots
// the stack and fails when a name here is not registered — so a rename at a
// registration site breaks a test instead of blanking a pane.
var panes = []pane{
	{format: "WAL     health=%s  records=%s  fsyncs=%s  retained=%s  degradations=%s\n", signals: []signal{
		{"wal.health", text, ""}, {"wal.records", rate, ""}, {"wal.fsyncs", rate, ""}, {"wal.retained", total, ""}, {"wal.degradations", total, ""}}},
	{format: "ckpt    served=%s  starved=%s  last_pause=%s\n", signals: []signal{
		{"wal.checkpoints", total, ""}, {"wal.ckpt_starved", total, ""}, {"wal.last_ckpt_pause_ns", dur, ""}}},
	{format: "server  requests=%s  updates=%s  acks/fsync=%s  failed_acks=%s\n", signals: []signal{
		{"server.requests", rate, ""}, {"server.updates", rate, ""}, {"server.synced_acks", ratio, "server.sync_rounds"}, {"server.failed_acks", total, ""}}},
	{format: "replica health=%s  applied_ts=%s  applied=%s  rebases=%s  lag=%s\n", signals: []signal{
		{"replica.health", text, ""}, {"replica.applied_ts", total, ""}, {"replica.applied_recs", rate, ""}, {"replica.rebases", total, ""}, {"replica.lag_ns", dur, ""}}},
	{header: "\nshard         commits       aborts    starved   switches\n",
		format: "%-8d %12s %12s %10s %10s\n", prefix: "shard.", signals: []signal{
			{"commits", rate, ""}, {"aborts", rate, ""}, {"starved", total, ""}, {"mode_switches", total, ""}}},
	{header: "\naborts by reason:\n", format: "  %-14s %d\n", prefix: "aborts.reason."},
	{header: "\nop              count        p50        p99        max\n",
		format: "%-10s %10d %10s %10s %10s\n", prefix: "server.lat."},
	// Present only when the server runs with -trace-every > 0.
	{header: "\ntrace stage breakdown (sampled requests):\nstage               count        p50        p99        max\n",
		format: "%-14s %10d %10s %10s %10s\n", prefix: "trace.stage."},
}

// frame is one redraw: the current snapshot against the previous one.
type frame struct {
	w         io.Writer
	cur, prev obs.Snapshot
	dt        time.Duration // since prev; 0 on a first frame, -once and -file
}

func (f *frame) value(s signal, prefix string) string {
	name := prefix + s.name
	v := f.cur.Counters[name]
	switch s.kind {
	case text:
		return f.cur.Text[name]
	case rate:
		if f.dt <= 0 {
			return fmt.Sprintf("%d total", v)
		}
		return fmt.Sprintf("%.0f/s", float64(v-f.prev.Counters[name])/f.dt.Seconds())
	case dur:
		return time.Duration(v).String()
	case ratio:
		if over := f.cur.Counters[s.over]; over > 0 {
			return fmt.Sprintf("%.1f", float64(v)/float64(over))
		}
		return "0.0"
	}
	return strconv.FormatUint(v, 10)
}

func (f *frame) render() {
	fmt.Fprintf(f.w, "stmctl top — snapshot v%d — %s\n\n", f.cur.Version, time.Now().Format(time.TimeOnly))
	for _, p := range panes {
		switch {
		case p.prefix == "":
			_, isText := f.cur.Text[p.signals[0].name]
			_, isCounter := f.cur.Counters[p.signals[0].name]
			if isText || isCounter {
				f.row(p, "")
			}
		case p.signals != nil:
			fmt.Fprint(f.w, p.header)
			for _, id := range f.shardIDs(p.prefix) {
				f.row(p, p.prefix+strconv.Itoa(id)+".", id)
			}
		default:
			f.table(p)
		}
	}
}

// row prints one line of p's signals, read under prefix, after args.
func (f *frame) row(p pane, prefix string, args ...any) {
	for _, s := range p.signals {
		args = append(args, f.value(s, prefix))
	}
	fmt.Fprintf(f.w, p.format, args...)
}

// shardIDs extracts the shard indices present in the snapshot, in order.
func (f *frame) shardIDs(prefix string) []int {
	seen := map[int]bool{}
	for name := range f.cur.Counters {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			if n, err := strconv.Atoi(strings.SplitN(rest, ".", 2)[0]); err == nil {
				seen[n] = true
			}
		}
	}
	ids := make([]int, 0, len(seen))
	for n := range seen {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	return ids
}

func (f *frame) table(p pane) {
	var names []string
	for name, h := range f.cur.Hists {
		if strings.HasPrefix(name, p.prefix) && h.Count > 0 {
			names = append(names, name)
		}
	}
	for name, v := range f.cur.Counters {
		if strings.HasPrefix(name, p.prefix) && v > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprint(f.w, p.header)
	for _, name := range names {
		short := strings.TrimPrefix(name, p.prefix)
		if h, ok := f.cur.Hists[name]; ok {
			fmt.Fprintf(f.w, p.format, short, h.Count, time.Duration(h.P50), time.Duration(h.P99), time.Duration(h.Max))
		} else {
			fmt.Fprintf(f.w, p.format, short, f.cur.Counters[name])
		}
	}
}
