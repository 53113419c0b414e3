package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The five workloads, in run order. The names are fixed: the pipeline accepts
// or rejects later changes by them.
var workloadNames = []string{"point-mix", "long-read", "durable-update", "wire-sync", "replica-follow"}

var workloadWhy = map[string]string{
	"point-mix":      "paper's common case: 80/10/10 point ops on an abtree straight over mvstm; shard/wal/server/replica bypassed, so a wire or WAL change must show no change and any Mode Q tax shows at once",
	"long-read":      "paper's headline: back-to-back 25000-key range queries beside a dedicated updater, Mode U pinned; versioned reads and writes, version lists, EBR: the same mvstm layer used the opposite way",
	"durable-update": "shard routing + wal append/group-commit/checkpoint/recovery under 50% updates with no socket; a server-only change predicts no change here",
	"wire-sync":      "full request path over loopback TCP with fsync-covered acks, 2 conns x 8 callers; TM and WAL nearly idle, so the wire rework must show here and a TM change must not",
	"replica-follow": "leader updates shipped over a loopback channel into a follower that also serves reads, closed loop with a record window; reads beside apply, updates beside shipping",
}

// metric is one catalogue row. where lists the workloads whose runs measure
// it; nil means all five. A per-layer metric is reported as 0 in the result
// line of a workload that bypasses its layer and left out of the printed
// tables.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	layer  string
	where  []string
	moves  string // the end-to-end metric (and workload) it should move
}

func (m metric) appliesTo(workload string) bool {
	if m.where == nil {
		return true
	}
	for _, w := range m.where {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onPoint   = []string{"point-mix"}
	onLong    = []string{"long-read"}
	onDurable = []string{"durable-update"}
	onWire    = []string{"wire-sync"}
	onReplica = []string{"replica-follow"}
	onWAL     = []string{"durable-update", "wire-sync", "replica-follow"}
)

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them (the result-line contract), so each is defined in terms
// every workload has: its read operation and its update operation. What
// "read" and "update" are per workload is in README.md. The two timings are
// fast deciles over fixed-work quanta (harness.go, fastDecile): on this box
// nothing that follows the wall clock through a whole run repeats to within
// any bound worth gating on, so wall-clock throughput is per-layer (run.*).
var endToEnd = []metric{
	{name: "read_us", unit: "us", better: "lower", bound: 0.25},
	{name: "update_us", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.15},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayer = []metric{
	// mvstm: raw TM rungs, then Stats() deltas of the workload's own trials.
	{name: "mvstm.atomic_ns", unit: "ns", better: "lower", layer: "mvstm", where: onPoint, moves: "run.ops_per_cpu_s on point-mix"},
	{name: "mvstm.readonly_ns", unit: "ns", better: "lower", layer: "mvstm", where: onPoint, moves: "run.ops_per_cpu_s, read_us on point-mix"},
	{name: "mvstm.long_read_ns_per_word", unit: "ns", better: "lower", layer: "mvstm", where: onLong, moves: "read_us on long-read"},
	{name: "mvstm.attempts_per_commit", unit: "count", better: "lower", layer: "mvstm", moves: "run.ops_per_cpu_s everywhere; read_us on long-read"},
	{name: "mvstm.abort_share.lock-busy", unit: "share", better: "lower", layer: "mvstm", moves: "update_us"},
	{name: "mvstm.abort_share.validation", unit: "share", better: "lower", layer: "mvstm", moves: "read_us on long-read"},
	{name: "mvstm.abort_share.version-gone", unit: "share", better: "lower", layer: "mvstm", moves: "read_us on long-read"},
	{name: "mvstm.versioned_commit_share", unit: "share", better: "lower", layer: "mvstm", moves: "share of read-only commits on the versioned path: must stay ~0 on point-mix, >0 on long-read"},
	{name: "mvstm.mode_switches", unit: "count", better: "lower", layer: "mvstm", moves: "update_us on long-read"},
	{name: "mvstm.addr_versioned", unit: "count", better: "lower", layer: "mvstm", moves: "peak_heap_mb on long-read"},
	{name: "mvstm.unversionings", unit: "count", better: "higher", layer: "mvstm", moves: "peak_heap_mb on long-read"},
	{name: "mvstm.starved", unit: "count", better: "lower", layer: "mvstm", moves: "failed ops everywhere"},
	{name: "mvstm.versioned_rq_share", unit: "share", better: "lower", layer: "mvstm", where: onLong, moves: "run.read_ops_per_s on long-read: range queries that had to take the versioned path (the only ones read_us times)"},
	{name: "mvstm.allocs_per_rq", unit: "count", better: "lower", layer: "mvstm", where: onLong, moves: "allocs_per_op, peak_heap_mb on long-read"},

	// dctl: the paper's baseline on the same two in-process workloads, one
	// trial each, and the paper's two claims as same-run ratios.
	{name: "dctl.point_ops_per_cpu_s", unit: "1/s", better: "higher", layer: "dctl", where: onPoint, moves: "reference only"},
	{name: "dctl.rq_per_s", unit: "1/s", better: "higher", layer: "dctl", where: onLong, moves: "reference only"},
	{name: "dctl.updater_ops_per_s", unit: "1/s", better: "higher", layer: "dctl", where: onLong, moves: "reference only"},
	{name: "mvstm.adaptive_rq_per_s", unit: "1/s", better: "higher", layer: "mvstm", where: onLong, moves: "long-read's range queries on adaptive multiverse (the workload itself runs pinned in Mode U), one trial"},
	{name: "mvstm.adaptive_updater_ops_per_s", unit: "1/s", better: "higher", layer: "mvstm", where: onLong, moves: "the updater beside them"},
	{name: "mvstm.point_vs_dctl", unit: "ratio", better: "higher", layer: "dctl", where: onPoint, moves: "run.ops_per_cpu_s on point-mix (claim: ~1)"},
	{name: "mvstm.rq_vs_dctl", unit: "ratio", better: "higher", layer: "dctl", where: onLong, moves: "read_us on long-read (claim: >>1)"},

	{name: "ds.abtree.search_ns", unit: "ns", better: "lower", layer: "ds", where: onPoint, moves: "read_us, run.ops_per_cpu_s on point-mix"},
	{name: "ds.abtree.update_ns", unit: "ns", better: "lower", layer: "ds", where: onPoint, moves: "update_us, run.ops_per_cpu_s on point-mix"},
	{name: "ds.abtree.range_ns_per_key", unit: "ns", better: "lower", layer: "ds", where: onLong, moves: "read_us on long-read"},
	{name: "ds.wrapper_allocs_per_op", unit: "count", better: "lower", layer: "ds", where: onPoint, moves: "allocs_per_op on point-mix"},
	{name: "ds.hashmap.search_ns", unit: "ns", better: "lower", layer: "ds", where: onDurable, moves: "read_us on durable-update"},
	{name: "ds.hashmap.update_ns", unit: "ns", better: "lower", layer: "ds", where: onDurable, moves: "update_us on durable-update"},

	// The ladder: durable-update's op stream replayed single-threaded on each
	// rung; a rung's delta is that layer's self time per op.
	{name: "ds.hashmap.op_ns", unit: "ns", better: "lower", layer: "ds", where: onDurable, moves: "ladder base: run.ops_per_cpu_s on durable-update"},
	{name: "shard.route_delta_ns", unit: "ns", better: "lower", layer: "shard", where: onDurable, moves: "run.ops_per_cpu_s on durable-update, wire-sync"},
	{name: "shard.k2_delta_ns", unit: "ns", better: "lower", layer: "shard", where: onDurable, moves: "run.ops_per_cpu_s on durable-update, wire-sync"},
	{name: "wal.append_delta_ns", unit: "ns", better: "lower", layer: "wal", where: onDurable, moves: "update_us on durable-update"},
	{name: "wal.group_delta_ns", unit: "ns", better: "lower", layer: "wal", where: onDurable, moves: "update_us on durable-update"},
	{name: "wal.default_interval_delta_ns", unit: "ns", better: "lower", layer: "wal", where: onDurable, moves: "what the log's default 2 ms group interval adds over the workloads' 10 ms; follows the disk's fsync latency"},
	{name: "wal.direct_op_ns", unit: "ns", better: "lower", layer: "wal", where: onDurable, moves: "check: ladder base + deltas should land within 15% of it"},

	{name: "shard.cross_range_us", unit: "us", better: "lower", layer: "shard", where: onDurable, moves: "wal.ckpt_pause_ms"},
	{name: "shard.freezes_per_s", unit: "1/s", better: "lower", layer: "shard", where: onWAL, moves: "update_us on the WAL workloads"},

	{name: "wal.sync_call_us_p50", unit: "us", better: "lower", layer: "wal", where: onDurable, moves: "update_us on wire-sync"},
	{name: "wal.fsync_probe_us_p50", unit: "us", better: "lower", layer: "wal", where: onDurable, moves: "what the sandbox disk gave; floor of wal.sync_call_us_p50"},
	{name: "wal.fsync_probe_us_p25", unit: "us", better: "lower", layer: "wal", where: onWire, moves: "the disk beside the trial; update_us on wire-sync is scaled to a 250 us probe"},
	{name: "wal.fsyncs_per_s", unit: "1/s", better: "lower", layer: "wal", where: onWAL, moves: "update_us on wire-sync"},
	{name: "wal.records_per_fsync", unit: "count", better: "higher", layer: "wal", where: onWAL, moves: "update_us on durable-update"},
	{name: "wal.bytes_per_record", unit: "B", better: "lower", layer: "wal", where: onWAL, moves: "wal.log_bytes_per_op"},
	{name: "wal.log_bytes_per_op", unit: "B", better: "lower", layer: "wal", where: onWAL, moves: "trades against wal.recovery_ms and update_us via checkpoint frequency"},
	{name: "wal.ckpt_pause_ms", unit: "ms", better: "lower", layer: "wal", where: onDurable, moves: "wall time of the mid-trial Checkpoint call, served or not; run.update_ops_per_s on durable-update"},
	{name: "wal.ckpt_served", unit: "share", better: "higher", layer: "wal", where: onDurable, moves: "wal.recovery_ms (a starved checkpoint leaves the whole log to replay)"},
	{name: "wal.recovery_ms", unit: "ms", better: "lower", layer: "wal", where: onDurable, moves: "restart time after Crash on durable-update"},
	{name: "wal.det_records", unit: "count", better: "lower", layer: "wal", where: onDurable, moves: "exact count: records for a fixed single-thread op stream"},
	{name: "wal.det_bytes", unit: "B", better: "lower", layer: "wal", where: onDurable, moves: "exact count: log bytes for the same stream"},

	{name: "wire.append_request_ns", unit: "ns", better: "lower", layer: "wire", where: onWire, moves: "run.ops_per_cpu_s on wire-sync"},
	{name: "wire.parse_request_ns", unit: "ns", better: "lower", layer: "wire", where: onWire, moves: "run.ops_per_cpu_s on wire-sync"},
	{name: "wire.append_response_ns", unit: "ns", better: "lower", layer: "wire", where: onWire, moves: "run.ops_per_cpu_s on wire-sync"},
	{name: "wire.parse_response_ns", unit: "ns", better: "lower", layer: "wire", where: onWire, moves: "read_us on wire-sync"},
	{name: "wire.read_frame_allocs", unit: "count", better: "lower", layer: "wire", where: onWire, moves: "allocs_per_op on wire-sync"},

	{name: "server.pipe_rtt_us_p50", unit: "us", better: "lower", layer: "server", where: onWire, moves: "read_us on wire-sync (protocol + goroutine hops, no kernel)"},
	{name: "server.tcp_rtt_us_p50", unit: "us", better: "lower", layer: "server", where: onWire, moves: "read_us on wire-sync (minus pipe = the kernel's share)"},
	{name: "server.update_raw_us", unit: "us", better: "lower", layer: "server", where: onWire, moves: "update_us on wire-sync before it is scaled to the nominal disk"},
	{name: "server.acks_per_fsync", unit: "count", better: "higher", layer: "server", where: onWire, moves: "update_us on wire-sync while wal.fsyncs_per_s is the limiter"},
	{name: "server.cpu_us_per_op", unit: "us", better: "lower", layer: "server", where: onWire, moves: "run.ops_per_cpu_s on wire-sync"},
	{name: "server.stage.queue-wait_us_p50", unit: "us", better: "lower", layer: "server", where: onWire, moves: "read_us on wire-sync"},
	{name: "server.stage.decode_us_p50", unit: "us", better: "lower", layer: "server", where: onWire, moves: "read_us on wire-sync"},
	{name: "server.stage.execute_us_p50", unit: "us", better: "lower", layer: "server", where: onWire, moves: "read_us on wire-sync"},
	{name: "server.stage.ack-stage_us_p50", unit: "us", better: "lower", layer: "server", where: onWire, moves: "update_us on wire-sync"},
	{name: "server.stage.sync-wait_us_p50", unit: "us", better: "lower", layer: "server", where: onWire, moves: "update_us on wire-sync"},
	{name: "server.stage.ack-write_us_p50", unit: "us", better: "lower", layer: "server", where: onWire, moves: "read_us, update_us on wire-sync"},
	{name: "server.unattributed_share", unit: "share", better: "lower", layer: "server", where: onWire, moves: "how much of the server-side latency no stage explains"},

	{name: "replica.lag_ms_p50", unit: "ms", better: "lower", layer: "replica", where: onReplica, moves: "update_us on replica-follow"},
	{name: "replica.lag_ms_max", unit: "ms", better: "lower", layer: "replica", where: onReplica, moves: "update_us on replica-follow"},
	{name: "replica.ship_bytes_per_s", unit: "B/s", better: "higher", layer: "replica", where: onReplica, moves: "update_us on replica-follow"},
	{name: "replica.empty_poll_share", unit: "share", better: "lower", layer: "replica", where: onReplica, moves: "run.ops_per_cpu_s on replica-follow"},
	{name: "replica.rebases", unit: "count", better: "lower", layer: "replica", where: onReplica, moves: "update_us on replica-follow"},
	{name: "replica.apply_recs_per_s", unit: "1/s", better: "higher", layer: "replica", where: onReplica, moves: "records applied / time until the follower held them all; the wall-clock rate of the whole pipeline"},
	{name: "replica.apply_us_per_rec", unit: "us", better: "lower", layer: "replica", where: onReplica, moves: "fast decile of the time per 2048 applied records: the applier's pace while it has a backlog"},
	{name: "replica.leader_alone_ops_per_s", unit: "1/s", better: "higher", layer: "replica", where: onReplica, moves: "same leader with no follower: what shipping costs it"},

	// What the wall clock saw over the whole trial, and the middle and tail of
	// the same quanta whose fast decile is end-to-end. They are what a user
	// sees on a shared machine, and not end-to-end because two identical runs
	// on this box disagree on them by more than any bound worth gating on (see
	// README.md, "What is not gated").
	{name: "run.read_ops_per_s", unit: "1/s", better: "higher", layer: "run", moves: "wall-clock counterpart of read_us"},
	{name: "run.update_ops_per_s", unit: "1/s", better: "higher", layer: "run", moves: "wall-clock counterpart of update_us"},
	{name: "run.mem_probe_ns", unit: "ns", better: "lower", layer: "run", moves: "what a cache-missing load cost around the trial; read_us, update_us and setup_s are scaled to 90 ns with elasticity 0.6"},
	{name: "run.ops_per_cpu_s", unit: "1/s", better: "higher", layer: "run", moves: "ops per process CPU-second, both kinds"},
	{name: "tail.read_us_p50", unit: "us", better: "lower", layer: "tail", moves: "median quantum of read_us, as the clock read it"},
	{name: "tail.read_us_p99", unit: "us", better: "lower", layer: "tail", moves: "user-visible tail of read_us, as the clock read it"},
	{name: "tail.update_us_p50", unit: "us", better: "lower", layer: "tail", moves: "median quantum of update_us, as the clock read it"},
	{name: "tail.update_us_p99", unit: "us", better: "lower", layer: "tail", moves: "user-visible tail of update_us, as the clock read it"},

	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", layer: "runtime", moves: "explains p99 moves"},
	{name: "runtime.num_gc", unit: "count", better: "lower", layer: "runtime", moves: "explains peak_heap_mb moves"},
	{name: "runtime.sched_lat_us_p99", unit: "us", better: "lower", layer: "runtime", moves: "explains p99 moves on wire-sync"},

	// Traced pass: 1 - traced/untraced ops per second (server tracer included
	// on wire-sync), and mean self time per traced operation by layer.
	{name: "obs.trace_overhead_share", unit: "share", better: "lower", layer: "obs", moves: "cost of the traced pass itself"},
	{name: "trace.self_ns.bench", unit: "ns", better: "lower", layer: "trace", moves: "the driver loop's own cost, in every metric"},
	{name: "trace.self_ns.mvstm", unit: "ns", better: "lower", layer: "trace", where: []string{"point-mix", "long-read", "wire-sync"}, moves: "begin/commit/retry time outside the data structure"},
	{name: "trace.self_ns.ds", unit: "ns", better: "lower", layer: "trace", where: []string{"point-mix", "long-read", "durable-update"}, moves: "structure traversal incl. transactional reads"},
	{name: "trace.self_ns.shard", unit: "ns", better: "lower", layer: "trace", where: []string{"durable-update", "replica-follow"}, moves: "routing and binding; on durable-update from the injected-decorator replay"},
	{name: "trace.self_ns.wal", unit: "ns", better: "lower", layer: "trace", where: onWAL, moves: "logging map, Sync and Checkpoint calls"},
	{name: "trace.self_ns.client", unit: "ns", better: "lower", layer: "trace", where: onWire, moves: "client-observed round trip"},
	{name: "trace.self_ns.server", unit: "ns", better: "lower", layer: "trace", where: onWire, moves: "server stages from the server's own tracer"},
	{name: "trace.self_ns.wire", unit: "ns", better: "lower", layer: "trace", where: onWire, moves: "request decode stage"},
	{name: "trace.self_ns.replica", unit: "ns", better: "lower", layer: "trace", where: onReplica, moves: "waiting for the follower to catch up"},
}

// benchmarkJSON renders the catalogue in the BENCHMARK.json schema.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, n := range workloadNames {
		doc.Workloads = append(doc.Workloads, wl{n, workloadWhy[n]})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, pl{m.name, m.unit, m.better})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// catalogueMarkdown renders the README's metric table.
func catalogueMarkdown() string {
	var b strings.Builder
	b.WriteString("| metric | unit | layer | better | bound | measured on | should move |\n|---|---|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | end-to-end | %s | %g%% | all | - |\n", m.name, m.unit, m.better, m.bound*100)
	}
	for _, m := range perLayer {
		where := "all"
		if m.where != nil {
			where = strings.Join(m.where, ", ")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | - | %s | %s |\n", m.name, m.unit, m.layer, m.better, where, m.moves)
	}
	return b.String()
}
