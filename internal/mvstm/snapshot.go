package mvstm

import "repro/internal/stm"

// snapshotAttempts bounds the retries of one SnapshotAt call. Attempt 1
// runs on the cheap unversioned read path (an in-place load is the value as
// of the pinned clock whenever the address's lock version validates below
// it), so a quiescent or lightly-contended snapshot costs no more than a
// plain read-only transaction. Later attempts run versioned: they version
// the addresses they reach (versionThenRead persists across aborts), which
// is what makes a retried scan — and the caller's next freeze — converge
// under sustained update load instead of starving the way an unversioned
// long read does.
const snapshotAttempts = 4

// SnapshotAt implements stm.SnapshotThread: it runs fn as a read-only
// transaction with its read clock pinned at ts, so the body observes
// exactly the writes whose commit timestamp is strictly below ts — a
// consistent snapshot that may lie in the past.
//
// This is the paper's read machinery (Listings 4 and 5) detached from the
// abort-escalation heuristics: instead of K1 failed attempts at fresh read
// clocks, the first attempt runs the unversioned path and every retry runs
// the versioned path, all at the caller-chosen clock value. Everything else
// is unchanged — versioned attempts version the addresses they touch in
// Mode Q, traverse version lists, wait out TBD heads, and announce
// themselves to the background thread's drain scans, so mode transitions
// and unversioning remain correct around pinned readers.
//
// ok=false means the snapshot at ts is not servable: some address the body
// needs was overwritten in place at or above ts before it was versioned
// (its pre-ts value is gone), or the body cancelled. Callers re-freeze a
// newer ts and retry; the versioning side effects of the failed attempts
// make the retry converge even under sustained update load.
func (t *Thread) SnapshotAt(ts uint64, fn func(stm.Txn)) bool {
	return t.run(fn, true, false, ts)
}
