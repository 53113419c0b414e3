package wal

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/obs"
)

// TestObsDegradedHealedEvents: a write-fault episode must land in the flight
// recorder as wal-degraded followed by wal-healed for the failing shard, and
// the registry snapshot must expose the log and shard counters live.
func TestObsDegradedHealedEvents(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(256)
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2, Times: 1})
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.Obs = reg
		o.Rec = rec
	}))
	defer l.Close()
	insertRange(t, l, m, 1, 200)
	syncHeals(t, l, 2*time.Second)
	if l.Stats().Degradations == 0 {
		t.Fatal("fault never fired: test exercised nothing")
	}

	var sawDegraded, sawHealedAfter bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.EvWalDegraded:
			if ev.A != 0 {
				t.Fatalf("degraded event on shard %d, want 0", ev.A)
			}
			sawDegraded = true
		case obs.EvWalHealed:
			if !sawDegraded {
				t.Fatal("wal-healed recorded before wal-degraded")
			}
			if ev.B == 0 {
				t.Fatal("healed event carries zero episode duration")
			}
			sawHealedAfter = true
		}
	}
	if !sawDegraded || !sawHealedAfter {
		t.Fatalf("missing transition events: degraded=%v healed=%v", sawDegraded, sawHealedAfter)
	}
	if rec.CountKind(obs.EvGroupCommit) == 0 {
		t.Fatal("no group-commit batch events recorded")
	}

	snap := reg.Snapshot()
	if snap.Text["wal.health"] != "healthy" {
		t.Fatalf("wal.health = %q, want healthy", snap.Text["wal.health"])
	}
	for _, name := range []string{"wal.records", "wal.fsyncs", "wal.degradations", "shard.0.commits"} {
		if snap.Counters[name] == 0 {
			t.Fatalf("snapshot counter %q is 0 (snapshot: %v)", name, snap.Counters)
		}
	}
	if snap.Counters["wal.records"] != l.Stats().Records {
		t.Fatalf("registry wal.records = %d, Stats().Records = %d — collector not live",
			snap.Counters["wal.records"], l.Stats().Records)
	}
}

// TestObsRejectAbortEvents: DegradeReject refusals must surface as abort
// events tagged ReasonWalReject, so an operator watching the ring can tell
// durability-policy aborts from TM conflicts.
func TestObsRejectAbortEvents(t *testing.T) {
	dir := t.TempDir()
	rec := obs.NewRecorder(256)
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2})
	m, l := mustOpen(t, faultOpts(dir, inj, func(o *Options) {
		o.DegradedMode = DegradeReject
		o.Rec = rec
	}))
	defer l.Close()
	insertRange(t, l, m, 1, 50)
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

	found := false
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvAbort && obs.AbortReason(ev.B) == obs.ReasonWalReject {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no wal-reject abort event in ring (have %d events)", len(rec.Events()))
	}
}

// TestObsStarvedCheckpoint: a checkpoint whose pinned scan starves — tl2
// keeps no versions, and updaters overwrite what the scan has yet to read —
// writes nothing, and says so three ways that agree: the error, the
// wal.ckpt_starved counter and one ckpt-starved event.
func TestObsStarvedCheckpoint(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("on one processor the scan runs between the updaters' time slices and is served")
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(1 << 12)
	dir := t.TempDir()
	m, l := mustOpen(t, testOpts(dir, "tl2", 2, func(o *Options) {
		o.Obs = reg
		o.Rec = rec
	}))
	defer l.Close()
	insertRange(t, l, m, 1, 4096)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := l.System().Register()
			defer th.Unregister()
			for k := w; ; k += 2 {
				select {
				case <-stop:
					return
				default:
					ds.Delete(th, m, k%4095+1)
					ds.Insert(th, m, k%4095+1, k)
				}
			}
		}()
	}
	// Until the first call that starves; the ring is read at once, before the
	// updaters' abort and group-commit events overwrite it.
	starved, events := false, 0
	for deadline := time.Now().Add(5 * time.Second); !starved && time.Now().Before(deadline); {
		if _, err := l.Checkpoint(); err != nil {
			if !strings.Contains(err.Error(), "checkpoint starved") {
				t.Fatalf("Checkpoint: %v", err)
			}
			starved, events = true, rec.CountKind(obs.EvCkptStarved)
		}
	}
	close(stop)
	wg.Wait()
	if !starved {
		t.Fatal("no checkpoint starved under two updaters on tl2: test exercised nothing")
	}
	if st, n := l.Stats(), reg.Snapshot().Counters["wal.ckpt_starved"]; st.StarvedCkpts != 1 || n != 1 || events != 1 {
		t.Fatalf("one call starved; Stats().StarvedCkpts = %d, wal.ckpt_starved = %d, %d ckpt-starved events in the ring", st.StarvedCkpts, n, events)
	}
	// Served calls before the first starved one each replaced the last.
	if ls, err := ListDir(fault.OS, dir); err != nil || len(ls.Ckpts) != int(min(l.Stats().Checkpoints, 1)) {
		t.Fatalf("%d checkpoints served, then one starved: %v listed (%v)", l.Stats().Checkpoints, ls.Ckpts, err)
	}
}
