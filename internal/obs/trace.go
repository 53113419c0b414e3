package obs

import (
	"encoding/json"
	"sync/atomic"
)

// Stage names one segment of a sampled transaction's lifecycle. Stages form
// two families: the server chain (Decode through AckWrite, plus Total) is a
// non-overlapping partition of the wire round trip, while the STM / WAL /
// replica stages overlay it — an Attempt span lives inside Execute, the WAL
// spans inside SyncWait, and ReplicaApply on another process entirely.
type Stage uint8

const (
	stageNone Stage = iota
	// StageDecode: wire request parse. Src = op, A = request id.
	StageDecode
	// StageQueueWait: frame read complete → worker picks the request up.
	StageQueueWait
	// StageExecute: the op body (STM transaction + WAL append for updates).
	StageExecute
	// StageAckStage: execute done → staged ack handed to the sync loop.
	StageAckStage
	// StageSyncWait: staged → the covering group-commit fsync returned.
	StageSyncWait
	// StageAckWrite: ack released → response bytes written to the socket.
	StageAckWrite
	// StageTotal: frame read complete → response written; the end-to-end
	// server-side latency every other server stage attributes into.
	StageTotal
	// StageAttempt: one STM attempt. Src = shard/instance id, A = attempt
	// number (1-based), B = 0 if the attempt committed, AbortReason+1 if it
	// aborted.
	StageAttempt
	// StageWalAppend: ObserveCommit — encoding the redo into the stream
	// buffer (plus the inline fsync under SyncEveryCommit).
	StageWalAppend
	// StageWalCoalesce: append done → the covering flush began its fsync;
	// the group-commit batching delay.
	StageWalCoalesce
	// StageWalFsync: the covering fsync itself. Src = shard, A = batch size.
	StageWalFsync
	// StageReplicaApply: a follower applied the record. Src = shard,
	// A = record commit ts, B = clock-offset estimate (ns, leader→follower)
	// used to shift the span into the leader's timebase.
	StageReplicaApply

	numStages
)

// NumStages sizes per-stage arrays.
const NumStages = int(numStages)

var stageNames = [NumStages]string{
	StageDecode:       "decode",
	StageQueueWait:    "queue-wait",
	StageExecute:      "execute",
	StageAckStage:     "ack-stage",
	StageSyncWait:     "sync-wait",
	StageAckWrite:     "ack-write",
	StageTotal:        "total",
	StageAttempt:      "attempt",
	StageWalAppend:    "wal-append",
	StageWalCoalesce:  "wal-coalesce",
	StageWalFsync:     "wal-fsync",
	StageReplicaApply: "replica-apply",
}

func (s Stage) String() string {
	if int(s) < NumStages && stageNames[s] != "" {
		return stageNames[s]
	}
	return "stage(?)"
}

// StageByName is the inverse of Stage.String (0, false for unknown names).
// Consumers of span JSON use it to get typed stages back.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Span is one decoded trace span.
type Span struct {
	Seq     uint64 // global record order (1-based)
	Trace   uint64 // trace id; groups the spans of one sampled request
	Stage   Stage
	Src     uint64 // stage-dependent source id (op, shard, instance)
	StartNs int64  // wall-clock start, UnixNano (leader timebase)
	DurNs   int64
	A, B    uint64 // stage-dependent payload words (see Stage docs)
}

// Tracer records sampled per-transaction spans into a fixed-size lock-free
// ring, with the same discipline as the event Recorder: Record is
// allocation-free and safe from any goroutine, a nil *Tracer records nothing
// and samples nothing, and readers drop slots caught mid-rewrite. Sampling
// is deterministic — every N-th frame read by SampleID gets a nonzero trace
// id — so overhead is a fixed, testable fraction and traces are reproducible
// under a seeded workload.
type Tracer struct {
	ring
	ctr   atomic.Uint64
	every uint64
	// hists[stage] aggregates per-stage durations into the registry as
	// trace.stage.<name>, so stmctl top's breakdown pane works from OpStats
	// alone. nil entries (no registry) skip aggregation.
	hists [NumStages]*Hist
}

// NewTracer returns a tracer sampling one of every `every` requests into a
// ring of `size` spans (rounded up to a power of two, minimum 16; size <= 0
// selects DefaultRingSize; every <= 0 is clamped to 1 = sample everything).
// When reg is non-nil, per-stage duration histograms are registered as
// trace.stage.<name>.
func NewTracer(size, every int, reg *Registry) *Tracer {
	if every < 1 {
		every = 1
	}
	t := &Tracer{ring: newRing(size), every: uint64(every)}
	if reg != nil {
		for st := 1; st < NumStages; st++ {
			t.hists[st] = reg.Hist("trace.stage." + Stage(st).String())
		}
	}
	return t
}

// Every returns the sampling period (0 on a nil tracer).
func (t *Tracer) Every() uint64 {
	if t == nil {
		return 0
	}
	return t.every
}

// SampleID draws the next sampling decision: a unique nonzero trace id for
// one in every `every` calls, 0 (don't trace) otherwise. Safe on a nil
// receiver (always 0). The id doubles as the sample ordinal, so consecutive
// sampled requests have increasing ids.
func (t *Tracer) SampleID() uint64 {
	if t == nil {
		return 0
	}
	n := t.ctr.Add(1)
	if n%t.every != 0 {
		return 0
	}
	return n
}

// Record publishes one span. id 0 (unsampled) and nil receivers are no-ops,
// so instrumentation points call Record unconditionally. startNs is
// UnixNano; durNs the stage duration.
func (t *Tracer) Record(id uint64, st Stage, src uint64, startNs, durNs int64, a, b uint64) {
	if t == nil || id == 0 {
		return
	}
	t.publish([ringWords]uint64{id, uint64(st), src, uint64(startNs), uint64(durNs), a, b})
	if int(st) < NumStages {
		if h := t.hists[st]; h != nil && durNs >= 0 {
			h.RecordNs(uint64(durNs))
		}
	}
}

// Len returns the number of spans recorded so far (not capped at ring size).
// Safe on a nil receiver.
func (t *Tracer) Len() uint64 {
	if t == nil {
		return 0
	}
	return t.published()
}

// Spans returns the decodable spans currently in the ring, oldest first.
// Slots being rewritten concurrently are skipped. Safe on a nil receiver.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	entries := t.scan()
	out := make([]Span, len(entries))
	for i, e := range entries {
		out[i] = Span{Seq: e.seq, Trace: e.w[0], Stage: Stage(e.w[1]), Src: e.w[2],
			StartNs: int64(e.w[3]), DurNs: int64(e.w[4]), A: e.w[5], B: e.w[6]}
	}
	return out
}

// TraceVersion identifies the trace JSON schema (OpTrace, /debug/obs/trace).
const TraceVersion = 1

// TraceDump is the JSON shape of a tracer snapshot.
type TraceDump struct {
	Version int        `json:"version"`
	Every   uint64     `json:"every"`
	Spans   []SpanJSON `json:"spans"`
}

// SpanJSON is one span with the stage rendered by name, the schema stmctl trace
// and /debug/obs/trace consumers parse.
type SpanJSON struct {
	Seq     uint64 `json:"seq"`
	Trace   uint64 `json:"trace"`
	Stage   string `json:"stage"`
	Src     uint64 `json:"src"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	A       uint64 `json:"a,omitempty"`
	B       uint64 `json:"b,omitempty"`
}

// Dump returns the current ring contents as a TraceDump. Safe on a nil
// receiver (version and an empty span list, so consumers see a valid,
// obviously-off document rather than an error).
func (t *Tracer) Dump() TraceDump {
	d := TraceDump{Version: TraceVersion, Every: t.Every(), Spans: []SpanJSON{}}
	for _, sp := range t.Spans() {
		d.Spans = append(d.Spans, SpanJSON{
			Seq: sp.Seq, Trace: sp.Trace, Stage: sp.Stage.String(), Src: sp.Src,
			StartNs: sp.StartNs, DurNs: sp.DurNs, A: sp.A, B: sp.B,
		})
	}
	return d
}

// JSON encodes Dump. Safe on a nil receiver.
func (t *Tracer) JSON() ([]byte, error) {
	return json.MarshalIndent(t.Dump(), "", "  ")
}
