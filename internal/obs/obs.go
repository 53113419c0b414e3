// Package obs is the unified observability plane: a process-wide metrics
// registry (poll-time collector callbacks and log-linear latency histograms),
// a fixed-size flight recorder of structured events, a sampled span tracer
// over the same ring, and the HTTP scrape surface stmserve mounts under -obs.
//
// It is a leaf package (stdlib only), like internal/server/wire, so every
// runtime layer — the TM backends, internal/shard, internal/wal,
// internal/server, internal/replica — and every binary can import it without
// import cycles. Layers never pay for instrumentation they did not ask for:
// a nil *Recorder or *Tracer records nothing (one branch), and registries are
// plain values created by binaries and tests, not process globals, so
// concurrent systems in one test process never collide on metric names.
//
// # Registry
//
// A Registry holds collectors and named histograms. Collector callbacks
// registered with Func/Text are polled only at snapshot time; they let a
// layer expose counters it already maintains (wal.Log's atomics,
// shard.System's per-shard stm.Stats) as live registry entries without
// double counting on the hot path. Snapshot() folds everything into one
// versioned, JSON-encodable view with flat dotted names ("shard.0.commits",
// "wal.health", "server.lat.insert").
//
// # Flight recorder and tracer
//
// A Recorder is a fixed-size ring of structured events (abort reasons, mode
// switches, WAL health transitions, checkpoint lifecycle, group-commit batch
// sizes, replica rebases); a Tracer is the same ring (ring.go) holding the
// spans of sampled requests. Recording is lock-free: a writer claims the next
// slot by sequence number and publishes fields through atomics; readers
// re-check the slot's sequence stamp and discard slots caught mid-rewrite,
// so Dump is safe (and race-detector clean) against concurrent recording.
// The event ring is dumpable on demand, on SIGQUIT (cmd/stmserve), and
// automatically on an stmtorture violation.
package obs

// AbortReason classifies why a transaction attempt aborted. Every TM backend
// tags each abort with a reason; per-reason counts aggregate through
// stm.Counters and abort events carry the reason into the flight recorder.
type AbortReason uint8

const (
	// ReasonUnknown: the abort was raised outside a backend's classified
	// sites (a body calling stm.AbortAttempt itself, as internal/shard's
	// snapshot path does).
	ReasonUnknown AbortReason = iota
	// ReasonLockBusy: an encounter-time or commit-time lock acquisition
	// found the lock held by another transaction (or lost the CAS race).
	ReasonLockBusy
	// ReasonValidation: a read validated against a lock version at or above
	// the transaction's read clock, or commit-time revalidation failed.
	ReasonValidation
	// ReasonVersionGone: a versioned or pinned-timestamp read could not be
	// served — the value as of the read timestamp is no longer available
	// (version list exhausted, or an unversioned address was overwritten).
	ReasonVersionGone
	// ReasonWalReject: wal.Map refused the mutation because the log's
	// degraded-mode policy (DegradeReject) is in force.
	ReasonWalReject

	// NumAbortReasons sizes per-reason counter arrays.
	NumAbortReasons = int(ReasonWalReject) + 1
)

func (r AbortReason) String() string {
	switch r {
	case ReasonLockBusy:
		return "lock-busy"
	case ReasonValidation:
		return "validation"
	case ReasonVersionGone:
		return "version-gone"
	case ReasonWalReject:
		return "wal-reject"
	}
	return "unknown"
}
