package mvstm

import (
	"testing"

	"repro/internal/stm"
	"repro/internal/vlock"
)

func TestValidateLockCases(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	tx := &th.txn
	tx.begin(false, false, false) // rClock = 1

	cases := []struct {
		name  string
		state vlock.State
		want  bool
	}{
		{"own lock", vlock.Pack(true, false, th.TID, 0), true},
		{"own flag", vlock.Pack(false, true, th.TID, 0), true},
		{"other's lock", vlock.Pack(true, false, th.TID+1, 0), false},
		{"free below rClock", vlock.Pack(false, false, 0, 0), true},
		{"free at rClock", vlock.Pack(false, false, 0, tx.rClock), false},
		{"free above rClock", vlock.Pack(false, false, 0, tx.rClock+5), false},
	}
	for _, c := range cases {
		if got := tx.validateLock(c.state); got != c.want {
			t.Errorf("%s: validateLock=%v want %v", c.name, got, c.want)
		}
	}
}

// TestCommitRevalidatesReadSet: an update transaction whose read set was
// invalidated between the read and tryCommit must abort at commit, roll
// back its in-place writes, and release its locks at a bumped clock.
func TestCommitRevalidatesReadSet(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	var r, w stm.Word
	w.Store(1)
	attempts := 0
	ok := th.Atomic(func(tx stm.Txn) {
		attempts++
		tx.Read(&r)
		tx.Write(&w, 99)
		if attempts == 1 {
			// Invalidate the read after the fact: bump r's lock
			// version to the current clock (>= rClock).
			s.locks.Of(&r).Release(s.clock.Load())
			if w.Load() != 99 {
				t.Error("encounter-time write not in place")
			}
		}
	})
	// Attempt 1 aborts at commit validation; its rollback releases w's
	// lock at the bumped clock, so attempt 2 conflicts on its own
	// residue (version == rClock, deferred-clock semantics) and attempt
	// 3 commits.
	if !ok || attempts != 3 {
		t.Fatalf("ok=%v attempts=%d; want commit on 3rd attempt", ok, attempts)
	}
	if w.Load() != 99 {
		t.Fatalf("final value %d want 99", w.Load())
	}
	if s.Stats().Aborts != 2 {
		t.Fatalf("aborts=%d want 2", s.Stats().Aborts)
	}
}

// TestTBDUnsetAtCommitClock: a Mode-U write's TBD version must resolve to
// the commit clock, not the transaction's read clock.
func TestTBDUnsetAtCommitClock(t *testing.T) {
	s := NewPinned(Config{LockTableSize: 1 << 8, DisableBG: true}, ModeU)
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	var w stm.Word
	th.Atomic(func(tx stm.Txn) {
		tx.Write(&w, 5)
		// Advance the clock mid-transaction so commitClock > rClock.
		s.clock.Increment()
		s.clock.Increment()
	})
	vl := s.getVList(s.locks.IndexOf(&w), &w)
	if vl == nil {
		t.Fatal("address not versioned")
	}
	head := vl.head.Load()
	m := head.meta.Load()
	if metaTBD(m) {
		t.Fatal("TBD marker not cleared at commit")
	}
	if got, want := metaTs(m), s.clock.Load(); got != want {
		t.Fatalf("committed version ts=%d want commit clock %d", got, want)
	}
}

// TestWriteWaitsForVersioningFlag: a writer encountering a flag-held lock
// (an address being versioned) must wait rather than abort (Listing 3
// line 2: "reread lock until flag is false").
func TestWriteWaitsForVersioningFlag(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	var w stm.Word
	l := s.locks.Of(&w)
	if _, ok := l.TryFlag(999); !ok {
		t.Fatal("setup: flag")
	}
	done := make(chan bool, 1)
	go func() {
		done <- th.Atomic(func(tx stm.Txn) { tx.Write(&w, 3) })
	}()
	select {
	case <-done:
		t.Fatal("writer finished while the flag was held")
	default:
	}
	l.Release(0) // versioner finishes
	if ok := <-done; !ok {
		t.Fatal("writer failed after flag release")
	}
	if s.Stats().Aborts != 0 {
		t.Fatalf("writer aborted %d times; flags must be waited out, not conflicts", s.Stats().Aborts)
	}
}

// TestReadSetSkippedForReadOnly mirrors the DCTL behaviour that enables the
// §4.5 race: read-only transactions track no read set.
func TestReadSetSkippedForReadOnly(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	var w stm.Word
	th.ReadOnly(func(tx stm.Txn) { tx.Read(&w) })
	if n := len(th.txn.reads); n != 0 {
		t.Fatalf("read-only txn tracked %d reads", n)
	}
	th.Atomic(func(tx stm.Txn) { tx.Read(&w) })
	if n := len(th.txn.reads); n != 1 {
		t.Fatalf("update txn tracked %d reads, want 1", n)
	}
}

// TestStatsAggregation checks that System.Stats sums thread counters and
// survives unregistration.
func TestStatsAggregation(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	var w stm.Word
	for i := 0; i < 3; i++ {
		th := s.RegisterMV()
		th.Atomic(func(tx stm.Txn) { tx.Write(&w, uint64(i)) })
		th.Unregister()
	}
	if got := s.Stats().Commits; got != 3 {
		t.Fatalf("commits=%d want 3 (counters must survive Unregister)", got)
	}
}

// TestEqualTimestampWriterExcluded is the regression test for the opacity
// bug found during reproduction (see EXPERIMENTS.md "Deviations"): a writer
// whose commit clock equals a reader's read clock must be invisible to the
// reader through version lists, exactly as it is through in-place words.
func TestEqualTimestampWriterExcluded(t *testing.T) {
	s := NewPinned(Config{LockTableSize: 1 << 8, DisableBG: true}, ModeU)
	defer s.Close()
	wr := s.RegisterMV()
	defer wr.Unregister()
	var w stm.Word
	w.Store(10)
	s.clock.Increment() // clock=2 so the initial version (ts=1) is readable

	rd := s.RegisterMV()
	defer rd.Unregister()
	tx := &rd.txn
	tx.begin(true, true, false) // rClock = 2

	// Writer commits at clock 2 == the reader's rClock.
	wr.Atomic(func(inner stm.Txn) { inner.Write(&w, 20) })

	oc := stm.RunAttempt(func() {
		if v := tx.Read(&w); v != 10 {
			t.Errorf("reader at rClock=commitClock read %d; the equal-timestamp writer must be excluded (want 10)", v)
		}
	})
	if oc != stm.Committed {
		t.Fatal("reader aborted; the older version should have served it")
	}
}
