package stm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ebr"
	"repro/internal/obs"
)

// fakeTxn is a Protocol whose steps only log themselves, so the tests below
// see exactly what Drive does around an attempt.
type fakeTxn struct {
	Hooks
	log   []string
	quiet bool // log nothing (allocation test)
}

func (f *fakeTxn) step(a ...any) {
	if !f.quiet {
		f.log = append(f.log, fmt.Sprint(a...))
	}
}

func (f *fakeTxn) Read(*Word) uint64       { return 0 }
func (f *fakeTxn) Write(*Word, uint64)     {}
func (f *fakeTxn) Begin(n int)             { f.step("begin", n) }
func (f *fakeTxn) Commit()                 { f.step("commit") }
func (f *fakeTxn) Rollback()               { f.step("rollback") }
func (f *fakeTxn) After(n int, oc Outcome) { f.step("after", n, ":", oc) }

// Release makes the fake its own ebr.Releaser, so an abort rollback shows
// up in the step log between the protocol's steps.
func (f *fakeTxn) Release(_ int, idx uint64) { f.step("release", idx) }

// released is a recording ebr.Releaser: the slots released, in order.
type released []uint64

func (r *released) Release(_ int, idx uint64) { *r = append(*r, idx) }

func newFake() (*SysBase, *ThreadBase, *fakeTxn) {
	sys, th, tx := new(SysBase), new(ThreadBase), new(fakeTxn)
	sys.Init(ObsConfig{})
	sys.Attach(th, tx)
	return sys, th, tx
}

func TestDriveOutcomes(t *testing.T) {
	sys, th, tx := newFake()
	hook := func(s string) func() { return func() { tx.log = append(tx.log, s) } }

	// A clean run commits on the first attempt.
	if !Drive(th, func(x Txn) { x.OnCommit(hook("oncommit")); x.OnAbort(tx, 0, 1) }, true, Policy{}) {
		t.Fatal("clean run did not commit")
	}
	// An aborted attempt is rolled back, its abort hooks run, and the body
	// retries; a bound that is not reached changes nothing.
	n := 0
	if !Drive(th, func(x Txn) {
		x.OnAbort(tx, 0, 2)
		if n++; n == 1 {
			tx.AbortWith(obs.ReasonLockBusy)
		}
	}, false, Policy{MaxAttempts: 2}) {
		t.Fatal("retried run did not commit")
	}
	// A cancel rolls back and does not retry.
	if Drive(th, func(x Txn) { x.OnAbort(tx, 0, 3); x.Cancel() }, false, Policy{}) {
		t.Fatal("cancelled run reported committed")
	}
	// An exhausted bound gives up.
	if Drive(th, func(Txn) { AbortAttempt() }, false, Policy{MaxAttempts: 2, Backoff: true}) {
		t.Fatal("starved run reported committed")
	}
	want := []string{
		"begin1", "commit", "after1:0", "oncommit",
		"begin1", "rollback", "release2", "after1:1", "begin2", "commit", "after2:0",
		"begin1", "rollback", "release3", "after1:2",
		"begin1", "rollback", "after1:1", "begin2", "rollback", "after2:1",
	}
	if !reflect.DeepEqual(tx.log, want) {
		t.Fatalf("steps\n got %v\nwant %v", tx.log, want)
	}
	st := sys.Stats()
	wantSt := Stats{Commits: 2, ReadOnlyCommits: 1, Aborts: 3, Starved: 1}
	wantSt.AbortReasons[obs.ReasonLockBusy] = 1
	wantSt.AbortReasons[obs.ReasonUnknown] = 2
	if st != wantSt {
		t.Fatalf("stats %+v want %+v", st, wantSt)
	}
}

func TestDrivePropagatesForeignPanics(t *testing.T) {
	_, th, _ := newFake()
	boom := errors.New("boom")
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("foreign panic swallowed or replaced: %v", r)
		}
	}()
	Drive(th, func(Txn) { panic(boom) }, false, Policy{})
}

// TestDriveCommitPathAllocs: the loop every transaction of every backend
// crosses allocates nothing, traced or not — a node's abort rollback and
// its eventual free through EBR included.
func TestDriveCommitPathAllocs(t *testing.T) {
	_, th, tx := newFake()
	tx.quiet = true
	body := func(x Txn) { x.Read(nil); x.OnAbort(tx, 0, 1); x.Free(tx, 0, 2) }
	run := func() { Drive(th, body, false, Policy{Backoff: true}) }
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("untraced commit: %v allocs/txn", n)
	}
	th.SetTrace(obs.NewTracer(64, 1, nil), 9)
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("traced commit: %v allocs/txn", n)
	}
}

func TestHooksOrderAndReset(t *testing.T) {
	var h Hooks
	var order released
	h.OnAbort(&order, 0, 1)
	h.OnAbort(&order, 0, 2)
	h.RunAbort()
	// Abort hooks run newest-first (undo semantics).
	if !reflect.DeepEqual(order, released{2, 1}) {
		t.Fatalf("abort order %v want [2 1]", order)
	}
	// Buffers are cleared by RunAbort.
	order = nil
	h.RunAbort()
	if len(order) != 0 {
		t.Fatal("RunAbort reran cleared hooks")
	}
}

func TestHooksCommitRoutesFreesToRetire(t *testing.T) {
	var h Hooks
	var freed released
	committed, retired := false, 0
	h.OnCommit(func() { committed = true })
	h.Free(&freed, 4, 7)
	h.RunCommit(func(r ebr.Release) {
		if r.Shard != 4 {
			t.Errorf("retired shard %d, want 4", r.Shard)
		}
		retired++
		r.Run()
	})
	if !committed || !reflect.DeepEqual(freed, released{7}) || retired != 1 {
		t.Fatalf("commit=%v freed=%v retired=%d", committed, freed, retired)
	}
}

func TestHooksAbortRevokesFreesAndCommits(t *testing.T) {
	var h Hooks
	var freed released
	ran := false
	h.OnCommit(func() { ran = true })
	h.Free(&freed, 0, 1)
	h.RunAbort()
	h.RunCommit(func(r ebr.Release) { r.Run() })
	if ran || len(freed) != 0 {
		t.Fatal("aborted attempt's commit hooks or frees executed")
	}
}

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.Commits.Add(3)
	c.Aborts.Add(5)
	c.VersionedCommits.Add(1)
	s := c.Snapshot()
	if s.Commits != 3 || s.Aborts != 5 || s.VersionedCommits != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	var total Stats
	total.Add(s)
	total.Add(s)
	if total.Commits != 6 || total.Aborts != 10 {
		t.Fatalf("aggregate %+v", total)
	}
}

func TestMix64(t *testing.T) {
	// Bijectivity proxy: no collisions across a dense range, and good
	// low-bit dispersion (the bits table indices come from).
	seen := map[uint64]bool{}
	buckets := map[uint64]int{}
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i * 8) // word-aligned addresses
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
		buckets[h&1023]++
	}
	for b, n := range buckets {
		if n > 160 { // 64 expected; x2.5 slack
			t.Fatalf("bucket %d has %d entries; low bits poorly mixed", b, n)
		}
	}
	if err := quick.Check(func(a, b uint64) bool {
		return (a == b) == (Mix64(a) == Mix64(b))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordRawOps(t *testing.T) {
	var w Word
	if w.Load() != 0 {
		t.Fatal("zero Word not zero")
	}
	w.Store(9)
	if !w.CompareAndSwap(9, 12) || w.Load() != 12 {
		t.Fatal("CAS failed")
	}
	if w.CompareAndSwap(9, 15) {
		t.Fatal("stale CAS succeeded")
	}
}
