package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
)

// faultOpts builds small-scale options with an injector installed and fast
// failure-plane timings.
func faultOpts(dir string, inj *fault.Injector, mod func(*Options)) Options {
	return testOpts(dir, "multiverse", 1, func(o *Options) {
		o.FS = inj
		o.RetryLimit = 2
		o.RetryBackoffMax = 2 * time.Millisecond
		o.StallTimeout = 250 * time.Millisecond
		if mod != nil {
			mod(o)
		}
	})
}

// insertRange commits [lo, hi) as key=val single-insert transactions.
func insertRange(t *testing.T, l *Log, m ds.Map, lo, hi uint64) {
	t.Helper()
	th := l.System().Register()
	defer th.Unregister()
	for k := lo; k < hi; k++ {
		if ins, ok := ds.Insert(th, m, k, k); !ok || !ins {
			t.Fatalf("insert %d: ins=%v ok=%v", k, ins, ok)
		}
	}
}

// syncHeals retries Sync until it returns nil or the deadline passes.
func syncHeals(t *testing.T, l *Log, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		err := l.Sync()
		if err == nil {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("Sync never healed: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// reopenAndCheck closes nothing: it opens dir fresh (clean FS) and asserts
// the recovered state equals want.
func reopenAndCheck(t *testing.T, dir string, want []ds.KV) {
	t.Helper()
	m, l := mustOpen(t, testOpts(dir, "multiverse", 1, nil))
	defer l.Close()
	if got := exportSorted(t, l, m); !pairsEqual(got, want) {
		t.Fatalf("recovered %d pairs, want %d (acked by nil Sync)", len(got), len(want))
	}
}

// TestSyncRetainsOnWriteFault: a failed flush retains every record; the
// one-shot fault heals on retry and nothing acked is lost.
func TestSyncRetainsOnWriteFault(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2, Times: 1})
	m, l := mustOpen(t, faultOpts(dir, inj, nil))
	insertRange(t, l, m, 1, 200)
	syncHeals(t, l, 2*time.Second)
	st := l.Stats()
	if st.FlushFailures == 0 {
		t.Fatal("fault never fired: test exercised nothing")
	}
	if st.Retained != 0 {
		t.Fatalf("healed log retains %d records", st.Retained)
	}
	if st.Degradations == 0 || l.Health() != Healthy {
		t.Fatalf("degradations=%d health=%v, want a completed degraded episode", st.Degradations, l.Health())
	}
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	reopenAndCheck(t, dir, acked)
}

// TestMidFlushAppendsSurviveFailedFlush: commits keep arriving while a flush
// is in its write or fsync (gateFS holds it there), and that flush then
// fails. The retained bytes and the records appended meanwhile must reach
// the disk in commit order — the mid-flush records overwrite and delete keys
// of the retained ones, so replaying them ahead would rebuild another state
// — and the retained gauge must return to 0 once the log heals.
func TestMidFlushAppendsSurviveFailedFlush(t *testing.T) {
	for _, tc := range []struct {
		name string
		park fault.Op
		rule fault.Rule
	}{
		// Write 1 on a segment is its header, at open; write 2 is the first
		// flush's — the one the gate holds.
		{"write-error", fault.OpWrite, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2, Times: 1}},
		{"short-write", fault.OpWrite, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2, Times: 1, Short: true}},
		{"fsync-error", fault.OpSync, fault.Rule{Ops: fault.OpSync, Path: "wal-", Kth: 1, Times: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.NewInjector(fault.OS, 1, tc.rule)
			gate := newGateFS(inj)
			m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) { o.FS = gate }))
			gate.arm(tc.park)
			ledger := map[uint64]uint64{}
			insertRange(t, l, m, 1, 51)
			for k := uint64(1); k < 51; k++ {
				ledger[k] = k
			}
			gate.awaitParked(t) // the flusher took some prefix of those and is mid-I/O

			gate.whileParked(t, "the mid-flush commits", func() {
				th := l.System().Register()
				defer th.Unregister()
				for k := uint64(1); k <= 10; k++ {
					if del, ok := ds.Delete(th, m, k); !ok || !del {
						t.Errorf("mid-flush delete %d: del=%v ok=%v", k, del, ok)
					}
					delete(ledger, k)
				}
				for _, k := range []uint64{5, 51, 52, 53} {
					if ins, ok := ds.Insert(th, m, k, k*100); !ok || !ins {
						t.Errorf("mid-flush insert %d: ins=%v ok=%v", k, ins, ok)
					}
					ledger[k] = k * 100
				}
			})
			close(gate.release) // the held call now reaches the injector and fails

			syncHeals(t, l, 2*time.Second)
			st := l.Stats()
			if st.FlushFailures == 0 {
				t.Fatal("the held flush did not fail: test exercised nothing")
			}
			if st.Retained != 0 {
				t.Fatalf("healed log retains %d records", st.Retained)
			}
			want := modelPairs(ledger)
			if got := exportSorted(t, l, m); !pairsEqual(got, want) {
				t.Fatalf("live state has %d pairs, ledger %d", len(got), len(want))
			}
			l.Crash()
			l.Close()
			reopenAndCheck(t, dir, want)
		})
	}
}

// TestFsyncPoisonNeverResyncs: after a failed fsync the segment is sealed
// and its fd never fsynced again (the kernel may have dropped the dirty
// pages); retained records land in a fresh segment and survive.
func TestFsyncPoisonNeverResyncs(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpSync, Path: "wal-", Kth: 1, Times: 1})
	inj.Record(true)
	m, l := mustOpen(t, faultOpts(dir, inj, nil))
	insertRange(t, l, m, 1, 100)
	syncHeals(t, l, 2*time.Second)
	if got := l.Stats().PoisonedSegs; got != 1 {
		t.Fatalf("PoisonedSegs = %d, want 1", got)
	}
	// The poisoned path must never see another sync after its failure.
	var poisoned string
	for _, rec := range inj.Trace() {
		if rec.Op == fault.OpSync && rec.Injected {
			poisoned = rec.Path
		} else if rec.Op == fault.OpSync && rec.Path == poisoned && poisoned != "" {
			t.Fatalf("fsync reissued on poisoned segment %s", poisoned)
		}
	}
	if poisoned == "" {
		t.Fatal("injected fsync fault never observed")
	}
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	reopenAndCheck(t, dir, acked)
}

// TestDegradedReject: with DegradeReject, once retries exhaust, wal.Map
// mutations abort instead of outrunning durability; healing re-admits them.
func TestDegradedReject(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2})
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.DegradedMode = DegradeReject
	}))
	defer l.Close()
	insertRange(t, l, m, 1, 50)
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded through a sticky write fault")
	}
	// Exhaustion must engage after RetryLimit consecutive failures.
	deadline := time.Now().Add(2 * time.Second)
	for !l.rejecting() {
		if !time.Now().Before(deadline) {
			t.Fatal("reject mode never engaged")
		}
		l.Sync()
		time.Sleep(time.Millisecond)
	}
	th := l.System().Register()
	if _, ok := ds.Insert(th, m, 999, 999); ok {
		th.Unregister()
		t.Fatal("mutation committed while rejecting")
	}
	th.Unregister()
	if l.Stats().RejectedOps == 0 {
		t.Fatal("RejectedOps not counted")
	}
	if h := l.Health(); h != Degraded {
		t.Fatalf("Health = %v, want Degraded", h)
	}
	inj.Heal()
	syncHeals(t, l, 2*time.Second)
	insertRange(t, l, m, 999, 1000) // mutations readmitted
	if h := l.Health(); h != Healthy {
		t.Fatalf("Health = %v after heal, want Healthy", h)
	}
}

// TestDegradedStallSyncBlocksUntilHeal: a stalled Sync outlives the fault
// and returns nil only once everything is durable.
func TestDegradedStallSyncBlocksUntilHeal(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2})
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.StallTimeout = 5 * time.Second
	}))
	insertRange(t, l, m, 1, 80)
	go func() {
		time.Sleep(30 * time.Millisecond)
		inj.Heal()
	}()
	start := time.Now()
	if err := l.Sync(); err != nil {
		t.Fatalf("stalled Sync failed despite heal: %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("Sync returned before the fault healed")
	}
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	reopenAndCheck(t, dir, acked)
}

// TestStallTimeoutRetains: when the stall window closes the Sync errors,
// but the records stay retained and a post-heal Sync still acks them.
func TestStallTimeoutRetains(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2})
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.StallTimeout = 20 * time.Millisecond
	}))
	insertRange(t, l, m, 1, 60)
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded through a sticky fault")
	}
	if l.Stats().Retained == 0 {
		t.Fatal("failed Sync retained nothing")
	}
	inj.Heal()
	syncHeals(t, l, 2*time.Second)
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	reopenAndCheck(t, dir, acked)
}

// TestEveryCommitStallHolds: under SyncEveryCommit + DegradeStall the
// commit observer itself blocks until the log heals — no commit becomes
// visible without durability.
func TestEveryCommitStallHolds(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2, Times: 1})
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.Policy = SyncEveryCommit
		o.StallTimeout = 5 * time.Second
	}))
	insertRange(t, l, m, 1, 30) // commit #>=2 hits the fault and must stall through it
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after stalled commits: %v", err)
	}
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	reopenAndCheck(t, dir, acked)
}

// TestCheckpointRefusesDegraded: no checkpoint while any stream is failing.
func TestCheckpointRefusesDegraded(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2})
	m, l := mustOpen(t, faultOpts(dir, inj, nil))
	defer l.Close()
	insertRange(t, l, m, 1, 50)
	l.Sync() // drive the stream into its degraded state
	if _, err := l.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Checkpoint while degraded: err = %v, want errors.Is ErrDegraded", err)
	}
	inj.Heal()
	syncHeals(t, l, 2*time.Second)
	if _, err := l.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after heal: %v", err)
	}
}

// TestCheckpointFaultNoTruncate: a fault while writing the checkpoint image
// must leave every log segment in place — the segments are still the only
// durable copy.
func TestCheckpointFaultNoTruncate(t *testing.T) {
	for _, ops := range []fault.Op{fault.OpWrite, fault.OpSync, fault.OpRename} {
		t.Run(ops.String(), func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: ops, Path: ".ckpt"})
			m, l := mustOpen(t, faultOpts(dir, inj, nil))
			insertRange(t, l, m, 1, 120)
			syncHeals(t, l, 2*time.Second)
			segsBefore, _ := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.seg"))
			if _, err := l.Checkpoint(); err == nil {
				t.Fatal("Checkpoint succeeded through an injected image fault")
			}
			segsAfter, _ := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.seg"))
			if len(segsAfter) < len(segsBefore) {
				t.Fatalf("failed checkpoint truncated segments: %d -> %d", len(segsBefore), len(segsAfter))
			}
			acked := exportSorted(t, l, m)
			l.Crash()
			l.Close()
			reopenAndCheck(t, dir, acked)
		})
	}
}

// TestOpenSegmentCollision: an O_EXCL collision mid-run (something else
// created our next segment name) degrades, evicts the squatter — leaving
// it in place would read as a torn middle of the stream at recovery,
// dropping every later segment — and heals without losing anything.
func TestOpenSegmentCollision(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1) // no rules: seam only, real collision
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.SegmentBytes = 1 << 10 // rotate often
	}))
	// Squat on the next few segment indexes the stream will want.
	for idx := uint64(1); idx <= 3; idx++ {
		if err := os.WriteFile(segPath(filepath.Join(dir, "shard-000"), idx), []byte("squatter"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	insertRange(t, l, m, 1, 400) // enough bytes to force several rotations
	syncHeals(t, l, 2*time.Second)
	if l.Stats().FlushFailures == 0 {
		t.Fatal("collision never hit: test exercised nothing")
	}
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	// The squatters were evicted at rotation time; the surviving stream is
	// contiguous and the acked state must be exact.
	reopenAndCheck(t, dir, acked)
}

// TestOpenSegmentDirRemoved: the shard directory vanishing mid-run is a
// permanent-class error (exhausts immediately); recreating it heals.
func TestOpenSegmentDirRemoved(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1)
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.SegmentBytes = 1 << 10
		o.DegradedMode = DegradeReject
	}))
	defer l.Close()
	shardDir := filepath.Join(dir, "shard-000")
	insertRange(t, l, m, 1, 100)
	syncHeals(t, l, 2*time.Second)
	if err := os.RemoveAll(shardDir); err != nil {
		t.Fatal(err)
	}
	// Drive enough bytes to force a rotation into the missing directory.
	// Once the ENOENT exhausts retries, reject mode aborts further inserts
	// — tolerated here; the point is the failure and the heal.
	th := l.System().Register()
	for k := uint64(100); k < 300; k++ {
		ds.Insert(th, m, k, k)
	}
	th.Unregister()
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded with the shard directory gone")
	}
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	syncHeals(t, l, 2*time.Second) // retries outlive even permanent errors
	if h := l.Health(); h != Healthy {
		t.Fatalf("Health = %v after dir restored, want Healthy", h)
	}
}

// TestRecoveryReadFault: an unreadable file at open is a hard error — never
// silently "repaired" as if the tail were torn.
func TestRecoveryReadFault(t *testing.T) {
	dir := t.TempDir()
	m, l := mustOpen(t, testOpts(dir, "multiverse", 1, nil))
	insertRange(t, l, m, 1, 100)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertRange(t, l, m, 100, 150)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()

	for _, tc := range []struct{ name, path string }{
		{"segment", "wal-"},
		{"checkpoint", ".ckpt"},
	} {
		inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpRead, Path: tc.path})
		if _, _, err := OpenWith(testOpts(dir, "multiverse", 1, func(o *Options) { o.FS = inj })); err == nil {
			t.Fatalf("%s read fault: open succeeded, want hard error", tc.name)
		}
	}
	// The refusals must not have damaged anything: a clean open recovers
	// the exact acked state.
	reopenAndCheck(t, dir, acked)
}

// TestErrAggregatesAllStreams: Err joins every failing stream, not just the
// first.
func TestErrAggregatesAllStreams(t *testing.T) {
	dir := t.TempDir()
	// Kth: 2 lets each stream's segment header (its first write) through,
	// then fails every record write, sticky.
	inj := fault.NewInjector(fault.OS, 1,
		fault.Rule{Ops: fault.OpWrite, Path: "shard-000", Kth: 2},
		fault.Rule{Ops: fault.OpWrite, Path: "shard-001", Kth: 2},
	)
	m, l := mustOpen(t, testOpts(dir, "multiverse", 2, func(o *Options) {
		o.FS = inj
		o.RetryLimit = 2
		o.RetryBackoffMax = 2 * time.Millisecond
		o.StallTimeout = 20 * time.Millisecond
	}))
	defer l.Close()
	insertRange(t, l, m, 1, 200) // keys spread across both shards
	l.Sync()
	err := l.Err()
	if err == nil {
		t.Fatal("Err nil with both streams failing")
	}
	for _, want := range []string{"shard 0", "shard 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Err %q missing %q", err, want)
		}
	}
}

// TestSyncAfterCloseErrors: Sync on a closed log is an error, not a silent
// flush of closed files.
func TestSyncAfterCloseErrors(t *testing.T) {
	dir := t.TempDir()
	m, l := mustOpen(t, testOpts(dir, "multiverse", 1, nil))
	insertRange(t, l, m, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, ErrSevered) {
		t.Fatalf("Sync after Close = %v, want errors.Is ErrSevered", err)
	}
	if h := l.Health(); h != Severed {
		t.Fatalf("Health after Close = %v, want Severed", h)
	}
}

// TestCloseSurfacesRetained: closing a log whose disk is still down must
// error — the retained records die with the process.
func TestCloseSurfacesRetained(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2})
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.StallTimeout = 10 * time.Millisecond
	}))
	insertRange(t, l, m, 1, 60)
	l.Sync() // fails; records retained
	if err := l.Close(); err == nil {
		t.Fatal("Close returned nil while records were retained on a dead disk")
	}
}

// TestNoSilentLossAllBackendsModes is the compact in-package differential:
// for every backend × degraded mode, commits race injected one-shot faults,
// the log heals, a nil Sync acks, and recovery must reproduce the acked
// state exactly.
func TestNoSilentLossAllBackendsModes(t *testing.T) {
	for _, backend := range walBackends {
		for _, mode := range []DegradedMode{DegradeStall, DegradeReject} {
			t.Run(backend+"/"+mode.String(), func(t *testing.T) {
				dir := t.TempDir()
				inj := fault.NewInjector(fault.OS, 1,
					fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 3, Times: 2},
					fault.Rule{Ops: fault.OpSync, Path: "wal-", Kth: 2, Times: 1},
				)
				o := testOpts(dir, backend, 2, func(o *Options) {
					o.FS = inj
					o.RetryLimit = 2
					o.RetryBackoffMax = 2 * time.Millisecond
					o.StallTimeout = 250 * time.Millisecond
					o.DegradedMode = mode
				})
				m, l := mustOpen(t, o)
				th := l.System().Register()
				for k := uint64(1); k < 300; k++ {
					// Under reject, aborted commits are fine — they are
					// not acked, so they owe nothing.
					ds.Insert(th, m, k, k)
				}
				th.Unregister()
				inj.Heal()
				syncHeals(t, l, 2*time.Second)
				acked := exportSorted(t, l, m)
				l.Crash()
				l.Close()
				mm, ll := mustOpen(t, testOpts(dir, backend, 2, nil))
				defer ll.Close()
				if got := exportSorted(t, ll, mm); !pairsEqual(got, acked) {
					t.Fatalf("silent loss: recovered %d pairs, acked %d", len(got), len(acked))
				}
			})
		}
	}
}

// TestSyncNoneDirFsyncFaultBlocksBarrier: under SyncNone, segment creation
// defers the directory fsync to the Sync barrier — so a nil Sync must not
// be reachable while directory fsyncs fail, or it vouches for segments
// whose directory entries could vanish on power loss. The rule's glob
// matches only the shard *directory* base name, so segment-file fsyncs
// pass through: the only thing standing between Sync and nil is the
// deferred directory fsync.
func TestSyncNoneDirFsyncFaultBlocksBarrier(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpSync, Path: "shard-*"})
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.Policy = SyncNone
		o.SegmentBytes = 1 << 10 // rotate often: several deferred dir entries
	}))
	insertRange(t, l, m, 1, 400)
	if err := l.Sync(); err == nil {
		t.Fatal("Sync returned nil while directory fsyncs were faulted (SyncNone dir entries uncovered)")
	}
	if inj.Injected() == 0 {
		t.Fatal("dir-fsync fault never fired: the barrier never issued a directory fsync")
	}
	inj.Heal()
	syncHeals(t, l, 2*time.Second)
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	reopenAndCheck(t, dir, acked)
}

// TestOpenSegmentEvictionFailureNamed: when the squatter on the next
// segment index cannot be evicted, Log.Err must name the eviction as the
// blocker — not just the generic O_EXCL collision the stream would retry
// forever.
func TestOpenSegmentEvictionFailureNamed(t *testing.T) {
	dir := t.TempDir()
	squat := segPath(filepath.Join(dir, "shard-000"), 1)
	inj := fault.NewInjector(fault.OS, 1,
		fault.Rule{Ops: fault.OpRemove, Path: filepath.Base(squat)})
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.SegmentBytes = 1 << 10 // rotate into the squatted index quickly
	}))
	if err := os.WriteFile(squat, []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	insertRange(t, l, m, 1, 400)
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded through an unevictable squatter")
	}
	if err := l.Err(); err == nil || !strings.Contains(err.Error(), "cannot evict squatter") {
		t.Fatalf("Err = %v, want the eviction failure named", err)
	}
	inj.Heal()
	syncHeals(t, l, 2*time.Second)
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	reopenAndCheck(t, dir, acked)
}

// TestCloseRetainsFsyncDebtStat: a nil SyncNone Close is not durability —
// the records and sealed segments it never fsynced are counted as close
// debt, and a synced close owes nothing.
func TestCloseRetainsFsyncDebtStat(t *testing.T) {
	dir := t.TempDir()
	m, l := mustOpen(t, testOpts(dir, "multiverse", 1, func(o *Options) {
		o.Policy = SyncNone
		o.SegmentBytes = 1 << 10 // force sealed-without-fsync segments
	}))
	insertRange(t, l, m, 1, 400)
	if err := l.Close(); err != nil {
		t.Fatalf("SyncNone Close: %v", err)
	}
	st := l.Stats()
	if st.CloseDebtRecs == 0 {
		t.Fatal("nil SyncNone Close reported zero fsync-debt records")
	}
	if st.CloseDebtSegs == 0 {
		t.Fatal("nil SyncNone Close reported zero fsync-debt segments despite rotations")
	}

	// A barrier before Close pays the debt: nothing to count.
	dir2 := t.TempDir()
	m2, l2 := mustOpen(t, testOpts(dir2, "multiverse", 1, func(o *Options) {
		o.Policy = SyncNone
		o.SegmentBytes = 1 << 10
	}))
	insertRange(t, l2, m2, 1, 400)
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l2.Stats(); st.CloseDebtRecs != 0 || st.CloseDebtSegs != 0 {
		t.Fatalf("synced close owes debt: recs=%d segs=%d", st.CloseDebtRecs, st.CloseDebtSegs)
	}
}

// TestDefaultsPassthrough: a log opened without an FS uses the zero-cost
// passthrough and reports fault.OS — no behaviour change for existing
// callers.
func TestDefaultsPassthrough(t *testing.T) {
	o := testOpts(t.TempDir(), "multiverse", 1, nil)
	if err := o.fill(); err != nil {
		t.Fatal(err)
	}
	if o.FS != fault.OS {
		t.Fatalf("default FS = %T, want fault.OS", o.FS)
	}
	if o.DegradedMode != DegradeStall || o.RetryLimit != 3 {
		t.Fatalf("defaults: mode=%v retries=%d", o.DegradedMode, o.RetryLimit)
	}
	var joinErr error = errors.Join(nil, nil)
	if joinErr != nil {
		t.Fatal("errors.Join(nil, nil) != nil — Err() contract broken")
	}
}
