package dctl

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
)

func newSys() *System { return New(Config{LockTableSize: 1 << 10}) }

// newIrrevSys builds a system whose every attempt, the first included, takes
// the irrevocable path (attempt > IrrevocableAfter).
func newIrrevSys() *System { return New(Config{LockTableSize: 1 << 10, IrrevocableAfter: -1}) }

func TestIrrevocableCommitsDirectly(t *testing.T) {
	sys := newIrrevSys()
	defer sys.Close()
	th := sys.Register().(*thread)
	defer th.Unregister()
	var w stm.Word
	ok := th.Atomic(func(tx stm.Txn) {
		tx.Write(&w, tx.Read(&w)+41)
	})
	if !ok {
		t.Fatal("irrevocable txn did not commit")
	}
	if w.Load() != 41 {
		t.Fatalf("w=%d want 41", w.Load())
	}
	st := sys.Stats()
	if st.Irrevocable != 1 {
		t.Fatalf("irrevocable commits=%d want 1", st.Irrevocable)
	}
	// The lock must be released afterwards.
	if sys.locks.Of(&w).Load().Held() {
		t.Fatal("irrevocable txn leaked its lock")
	}
	if sys.irrev.Load() != 0 {
		t.Fatal("irrevocable flag not cleared")
	}
}

func TestIrrevocableCancelRollsBack(t *testing.T) {
	sys := newIrrevSys()
	defer sys.Close()
	th := sys.Register().(*thread)
	defer th.Unregister()
	var w stm.Word
	w.Store(5)
	ok := th.Atomic(func(tx stm.Txn) {
		tx.Write(&w, 99)
		tx.Cancel()
	})
	if ok {
		t.Fatal("cancelled irrevocable txn reported committed")
	}
	if w.Load() != 5 {
		t.Fatalf("cancel did not roll back: w=%d", w.Load())
	}
	if sys.irrev.Load() != 0 {
		t.Fatal("irrevocable flag leaked after cancel")
	}
}

func TestIrrevocableMutualExclusion(t *testing.T) {
	sys := newIrrevSys()
	defer sys.Close()
	var inIrrev, maxIrrev atomic.Int64
	var wg sync.WaitGroup
	var w stm.Word
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.Register().(*thread)
			defer th.Unregister()
			for i := 0; i < 50; i++ {
				th.Atomic(func(tx stm.Txn) {
					n := inIrrev.Add(1)
					if n > maxIrrev.Load() {
						maxIrrev.Store(n)
					}
					tx.Write(&w, tx.Read(&w)+1)
					inIrrev.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	if maxIrrev.Load() != 1 {
		t.Fatalf("%d irrevocable transactions ran concurrently", maxIrrev.Load())
	}
	if w.Load() != 200 {
		t.Fatalf("w=%d want 200", w.Load())
	}
}

// TestStarvationFreedom: a long read-modify-write over many hot words keeps
// conflicting with a hammer thread; the bounded-abort fallback must still
// get it committed (this is the paper's "DCTL starvation freedom").
func TestStarvationFreedom(t *testing.T) {
	sys := New(Config{LockTableSize: 1 << 10, IrrevocableAfter: 3})
	defer sys.Close()
	const n = 64
	words := make([]stm.Word, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // hammer: constant writes across all words
		defer wg.Done()
		th := sys.Register()
		defer th.Unregister()
		for i := 0; !stop.Load(); i++ {
			a := i % n
			th.Atomic(func(tx stm.Txn) {
				tx.Write(&words[a], tx.Read(&words[a])+1000)
			})
		}
	}()
	victim := sys.Register()
	commits := 0
	for commits < 20 {
		if victim.Atomic(func(tx stm.Txn) {
			var sum uint64
			for i := range words {
				sum += tx.Read(&words[i])
			}
			tx.Write(&words[0], sum)
		}) {
			commits++
		}
	}
	stop.Store(true)
	wg.Wait()
	victim.Unregister()
	if sys.Stats().Starved != 0 {
		t.Fatal("DCTL transactions must never starve")
	}
}

// TestIrrevocableReadOnlyReleasesLocks is the regression test for a
// deadlock found by the benchmark harness: irrevocable transactions lock
// their reads, so a READ-ONLY irrevocable commit must still release its
// lock set (the generic "read-only commits are no-ops" shortcut leaked
// every lock the transaction touched and wedged the whole system).
func TestIrrevocableReadOnlyReleasesLocks(t *testing.T) {
	sys := newIrrevSys()
	defer sys.Close()
	th := sys.Register().(*thread)
	defer th.Unregister()
	words := make([]stm.Word, 8)
	ok := th.ReadOnly(func(tx stm.Txn) {
		for i := range words {
			tx.Read(&words[i])
		}
	})
	if !ok {
		t.Fatal("irrevocable read-only txn failed")
	}
	for i := range words {
		if sys.locks.Of(&words[i]).Load().Held() {
			t.Fatalf("word %d's lock leaked after read-only irrevocable commit", i)
		}
	}
	if sys.irrev.Load() != 0 {
		t.Fatal("irrevocable flag leaked")
	}
	// The system must remain usable by other transactions.
	other := sys.Register()
	defer other.Unregister()
	if !other.Atomic(func(tx stm.Txn) { tx.Write(&words[0], 1) }) {
		t.Fatal("subsequent transaction blocked")
	}
}

func TestReadOnlySkipsReadSet(t *testing.T) {
	sys := newSys()
	defer sys.Close()
	th := sys.Register().(*thread)
	defer th.Unregister()
	var w stm.Word
	th.ReadOnly(func(tx stm.Txn) { tx.Read(&w) })
	if n := len(th.txn.reads); n != 0 {
		t.Fatalf("read-only txn tracked %d reads; DCTL must track none", n)
	}
	th.Atomic(func(tx stm.Txn) { tx.Read(&w); tx.Write(&w, 1) })
}
