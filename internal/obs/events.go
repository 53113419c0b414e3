package obs

import (
	"fmt"
	"io"
	"time"
)

// EventKind tags a flight-recorder event. Each kind documents what its
// three payload words (A, B, C) mean.
type EventKind uint8

const (
	evNone EventKind = iota
	// EvAbort: a transaction attempt aborted. A = source id (shard index),
	// B = AbortReason, C = attempt number within the retry loop.
	EvAbort
	// EvModeSwitch: an mvstm instance advanced its mode counter.
	// A = source id, B = new counter value (mode = B & 3: 0 Q, 1 QtoU,
	// 2 U, 3 UtoQ).
	EvModeSwitch
	// EvWalDegraded: a WAL stream entered (or deepened) degraded mode.
	// A = shard, B = consecutive append/fsync failures, C = 1 if the
	// stream's redundancy is exhausted.
	EvWalDegraded
	// EvWalHealed: a degraded WAL stream recovered. A = shard,
	// B = nanoseconds spent degraded.
	EvWalHealed
	// EvWalSevered: the log was severed (crash-injected or fatal).
	EvWalSevered
	// EvCkptBegin: checkpoint started. A = frozen checkpoint ts.
	EvCkptBegin
	// EvCkptEnd: checkpoint finished. A = checkpoint ts, B = live pairs
	// written, C = segments truncated.
	EvCkptEnd
	// EvCkptSkip: checkpoint completed but segment truncation was skipped
	// (degraded stream or retention debt). A = checkpoint ts.
	EvCkptSkip
	// EvCkptStarved: a checkpoint's pinned scan starved and nothing was
	// written (a versionless backend under updates, or Multiverse short of
	// Mode U). A = nanoseconds the call spent before giving up.
	EvCkptStarved
	// EvGroupCommit: one WAL flush batch hit the disk. A = shard,
	// B = records in the batch.
	EvGroupCommit
	// EvAckBatch: the server released one group-commit ack batch.
	// A = acks in the batch, B = 1 if the Sync succeeded, 0 if the batch
	// was failed.
	EvAckBatch
	// EvReplicaRebase: a follower applied a rebase (checkpoint image).
	// A = rebase base ts, B = pairs in the image.
	EvReplicaRebase
	// EvViolation: a torture/consistency violation was detected; the ring
	// is dumped right after recording this. A = free-form code.
	EvViolation
)

var kindNames = [...]string{
	EvAbort:         "abort",
	EvModeSwitch:    "mode-switch",
	EvWalDegraded:   "wal-degraded",
	EvWalHealed:     "wal-healed",
	EvWalSevered:    "wal-severed",
	EvCkptBegin:     "ckpt-begin",
	EvCkptEnd:       "ckpt-end",
	EvCkptSkip:      "ckpt-trunc-skip",
	EvCkptStarved:   "ckpt-starved",
	EvGroupCommit:   "group-commit",
	EvAckBatch:      "ack-batch",
	EvReplicaRebase: "replica-rebase",
	EvViolation:     "violation",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one decoded flight-recorder entry.
type Event struct {
	Seq     uint64 // global record order (1-based)
	UnixNs  int64
	Kind    EventKind
	A, B, C uint64
}

// Recorder is a fixed-size lock-free ring of structured events. Record is
// allocation-free and safe from any goroutine; a nil *Recorder records
// nothing, so layers thread an optional recorder without branching beyond
// the nil check inside Record. Readers (Events, Dump) run concurrently
// with writers and drop slots caught mid-rewrite.
type Recorder struct{ ring }

// NewRecorder returns a recorder with capacity size rounded up to a power
// of two (minimum 16; size <= 0 selects DefaultRingSize).
func NewRecorder(size int) *Recorder { return &Recorder{newRing(size)} }

// Record appends one event, overwriting the oldest when the ring is full.
// Safe on a nil receiver (no-op).
func (r *Recorder) Record(kind EventKind, a, b, c uint64) {
	if r == nil {
		return
	}
	r.publish([ringWords]uint64{uint64(time.Now().UnixNano()), uint64(kind), a, b, c})
}

// Len returns the number of events recorded so far (not capped at ring
// size). Safe on a nil receiver.
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.published()
}

// Events returns the decodable events currently in the ring, oldest first.
// Slots being rewritten concurrently are skipped. Safe on a nil receiver.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	entries := r.scan()
	out := make([]Event, len(entries))
	for i, e := range entries {
		out[i] = Event{Seq: e.seq, UnixNs: int64(e.w[0]), Kind: EventKind(e.w[1]), A: e.w[2], B: e.w[3], C: e.w[4]}
	}
	return out
}

// CountKind returns how many ring-resident events have the given kind.
// Useful in tests; for long runs prefer registry counters (the ring
// forgets overwritten events).
func (r *Recorder) CountKind(kind EventKind) int {
	n := 0
	for _, ev := range r.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

var modeNames = [4]string{"Q", "QtoU", "U", "UtoQ"}

// Format renders one event as a human-readable line (no trailing newline).
func (ev Event) Format() string {
	t := time.Unix(0, ev.UnixNs).UTC().Format("15:04:05.000000")
	switch ev.Kind {
	case EvAbort:
		return fmt.Sprintf("%s #%d abort src=%d reason=%s attempt=%d",
			t, ev.Seq, ev.A, AbortReason(ev.B).String(), ev.C)
	case EvModeSwitch:
		return fmt.Sprintf("%s #%d mode-switch src=%d mode=%s counter=%d",
			t, ev.Seq, ev.A, modeNames[ev.B&3], ev.B)
	case EvWalDegraded:
		return fmt.Sprintf("%s #%d wal-degraded shard=%d fails=%d exhausted=%d",
			t, ev.Seq, ev.A, ev.B, ev.C)
	case EvWalHealed:
		return fmt.Sprintf("%s #%d wal-healed shard=%d degraded_for=%s",
			t, ev.Seq, ev.A, time.Duration(ev.B))
	case EvWalSevered:
		return fmt.Sprintf("%s #%d wal-severed", t, ev.Seq)
	case EvCkptBegin:
		return fmt.Sprintf("%s #%d ckpt-begin ts=%d", t, ev.Seq, ev.A)
	case EvCkptEnd:
		return fmt.Sprintf("%s #%d ckpt-end ts=%d pairs=%d truncated_segs=%d",
			t, ev.Seq, ev.A, ev.B, ev.C)
	case EvCkptSkip:
		return fmt.Sprintf("%s #%d ckpt-trunc-skip ts=%d", t, ev.Seq, ev.A)
	case EvCkptStarved:
		return fmt.Sprintf("%s #%d ckpt-starved after=%s", t, ev.Seq, time.Duration(ev.A))
	case EvGroupCommit:
		return fmt.Sprintf("%s #%d group-commit shard=%d recs=%d", t, ev.Seq, ev.A, ev.B)
	case EvAckBatch:
		return fmt.Sprintf("%s #%d ack-batch acks=%d synced=%d", t, ev.Seq, ev.A, ev.B)
	case EvReplicaRebase:
		return fmt.Sprintf("%s #%d replica-rebase base_ts=%d pairs=%d", t, ev.Seq, ev.A, ev.B)
	case EvViolation:
		return fmt.Sprintf("%s #%d VIOLATION code=%d", t, ev.Seq, ev.A)
	}
	return fmt.Sprintf("%s #%d %s a=%d b=%d c=%d", t, ev.Seq, ev.Kind, ev.A, ev.B, ev.C)
}

// Dump writes the ring's events to w, oldest first, with a header and
// footer so dumps are greppable in mixed logs. Safe on a nil receiver.
func (r *Recorder) Dump(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "obs: no flight recorder attached")
		return
	}
	evs := r.Events()
	fmt.Fprintf(w, "=== obs flight recorder: %d event(s) in ring, %d recorded ===\n",
		len(evs), r.Len())
	for _, ev := range evs {
		fmt.Fprintln(w, ev.Format())
	}
	fmt.Fprintln(w, "=== end flight recorder ===")
}
