package bench

import (
	"encoding/json"
	"io"
)

// RunRecord is the machine-readable form of one Result, emitted alongside
// the human table when EmitJSON is enabled (cmd/multibench -json). One JSON
// object per line per run, so bench trajectories can be tracked across PRs
// by any line-oriented tooling.
type RunRecord struct {
	TM          string  `json:"tm"`
	DS          string  `json:"ds"`
	Threads     int     `json:"threads"`
	Updaters    int     `json:"updaters"`
	Shards      int     `json:"shards"`
	Prefill     int     `json:"prefill"`
	DurationSec float64 `json:"duration_sec"`
	Trials      int     `json:"trials"`
	Zipf        bool    `json:"zipf,omitempty"`
	SizeQueries bool    `json:"size_queries,omitempty"`
	Persist     string  `json:"persist,omitempty"`

	OpsPerSec    float64 `json:"ops_per_sec"`
	RQsPerSec    float64 `json:"rqs_per_sec"`
	Commits      uint64  `json:"commits"`
	Aborts       uint64  `json:"aborts"`
	Starved      uint64  `json:"starved"`
	Versioned    uint64  `json:"versioned_commits"`
	ListReads    uint64  `json:"version_list_reads"`
	ModeSwitches uint64  `json:"mode_switches"`
	MaxHeapKB    uint64  `json:"max_heap_kb"`
	OpsPerCPUSec float64 `json:"ops_per_cpu_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	NumGC        uint64  `json:"num_gc"`
	GCPauseNs    int64   `json:"gc_pause_ns"`
	ClockEnd     uint64  `json:"clock_end,omitempty"`

	// Durability overhead (persistence runs, Config.Persist != "").
	LogBytesPerOp float64 `json:"log_bytes_per_op,omitempty"`
	WALRecords    uint64  `json:"wal_records,omitempty"`
	Fsyncs        uint64  `json:"fsyncs,omitempty"`
	CkptPauseNs   int64   `json:"ckpt_pause_ns,omitempty"`
	CkptStarved   bool    `json:"ckpt_starved,omitempty"`
	WALRetries    uint64  `json:"wal_retries,omitempty"`
	WALDegraded   uint64  `json:"wal_degraded,omitempty"`

	// Per-shard commit/abort splits (sharded runs, last trial's window).
	ShardCommits []uint64 `json:"shard_commits,omitempty"`
	ShardAborts  []uint64 `json:"shard_aborts,omitempty"`

	// Server runs only (multibench -exp server): client load shape and
	// wire-latency quantiles in microseconds from the load generator's
	// histogram. AcksPerFsync is the group-commit pipeline's amortization
	// (update acks released per fsync cycle).
	ServerConns  int     `json:"server_conns,omitempty"`
	ServerDepth  int     `json:"server_depth,omitempty"`
	ServerAck    string  `json:"server_ack,omitempty"`
	LatP50Us     float64 `json:"lat_p50_us,omitempty"`
	LatP99Us     float64 `json:"lat_p99_us,omitempty"`
	LatP999Us    float64 `json:"lat_p999_us,omitempty"`
	AcksPerFsync float64 `json:"acks_per_fsync,omitempty"`
	LostOps      uint64  `json:"lost_ops,omitempty"`

	// Replication runs only (multibench -exp replica): follower apply
	// throughput, sampled record-lag quantiles, and post-quiesce drain time.
	ReplicaMode       string  `json:"replica_mode,omitempty"` // direct or channel
	ReplicaApplyPerS  float64 `json:"replica_apply_per_sec,omitempty"`
	ReplicaLagP50Recs uint64  `json:"replica_lag_p50_recs,omitempty"`
	ReplicaLagP99Recs uint64  `json:"replica_lag_p99_recs,omitempty"`
	ReplicaDrainMs    float64 `json:"replica_drain_ms,omitempty"`
	ReplicaRebases    uint64  `json:"replica_rebases,omitempty"`
	ReplicaShippedB   uint64  `json:"replica_shipped_bytes,omitempty"`
}

var jsonEnc *json.Encoder

// EmitJSON mirrors every subsequent Run's result to w as one JSON object
// per line. Run is driven serially by cmd/multibench, so no locking.
func EmitJSON(w io.Writer) { jsonEnc = json.NewEncoder(w) }

func emitJSON(r Result) {
	if jsonEnc == nil {
		return
	}
	shards := r.Config.Shards
	if shards == 0 {
		shards = 1
	}
	rec := RunRecord{
		TM:          r.Config.TM,
		DS:          r.Config.DS,
		Threads:     r.Config.Threads,
		Updaters:    r.Config.Updaters,
		Shards:      shards,
		Prefill:     r.Config.Prefill,
		DurationSec: r.Config.Duration.Seconds(),
		Trials:      r.Config.Trials,
		Zipf:        r.Config.Zipf,
		SizeQueries: r.Config.SizeQueries,
		Persist:     r.Config.Persist,

		OpsPerSec:    r.OpsPerSec,
		RQsPerSec:    r.RQsPerSec,
		Commits:      r.Commits,
		Aborts:       r.Aborts,
		Starved:      r.Starved,
		Versioned:    r.Versioned,
		ListReads:    r.ListReads,
		ModeSwitches: r.ModeSwitches,
		MaxHeapKB:    r.MaxHeapKB,
		OpsPerCPUSec: r.OpsPerCPUSec,
		AllocsPerOp:  r.AllocsPerOp,
		BytesPerOp:   r.BytesPerOp,
		NumGC:        r.NumGC,
		GCPauseNs:    r.GCPauseTotal.Nanoseconds(),
		ClockEnd:     r.ClockEnd,
	}
	if r.Config.Persist != "" {
		rec.LogBytesPerOp = r.LogBytesPerOp
		rec.WALRecords = r.WALRecords
		rec.Fsyncs = r.Fsyncs
		rec.CkptPauseNs = r.CkptPause.Nanoseconds()
		rec.CkptStarved = !r.CkptOK
		rec.WALRetries = r.WALRetries
		rec.WALDegraded = r.WALDegraded
	}
	for _, st := range r.ShardStats {
		rec.ShardCommits = append(rec.ShardCommits, st.Commits)
		rec.ShardAborts = append(rec.ShardAborts, st.Aborts)
	}
	if s := r.Server; s != nil {
		rec.ServerConns = s.Conns
		rec.ServerDepth = s.Depth
		rec.ServerAck = s.Ack
		rec.LatP50Us = float64(s.LatP50.Nanoseconds()) / 1e3
		rec.LatP99Us = float64(s.LatP99.Nanoseconds()) / 1e3
		rec.LatP999Us = float64(s.LatP999.Nanoseconds()) / 1e3
		if s.SyncRounds > 0 {
			rec.AcksPerFsync = float64(s.SyncedAcks) / float64(s.SyncRounds)
		}
		rec.LostOps = s.Lost
	}
	if rp := r.Replica; rp != nil {
		rec.ReplicaMode = "direct"
		if rp.Channel {
			rec.ReplicaMode = "channel"
		}
		rec.ReplicaApplyPerS = rp.AppliedRecsPerSec
		rec.ReplicaLagP50Recs = rp.LagP50
		rec.ReplicaLagP99Recs = rp.LagP99
		rec.ReplicaDrainMs = rp.DrainMs
		rec.ReplicaRebases = rp.Rebases
		rec.ReplicaShippedB = rp.ShippedBytes
	}
	jsonEnc.Encode(rec) //nolint:errcheck // best-effort sink, like the table writer
}
