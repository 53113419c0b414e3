package norec

import (
	"sync"
	"testing"

	"repro/internal/stm"
)

// TestValueBasedValidationToleratesSilentStores exercises NOrec's defining
// feature: validation compares values, not versions, so a concurrent writer
// that commits without changing any value the reader saw does not doom the
// reader.
func TestValueBasedValidationToleratesSilentStores(t *testing.T) {
	sys := New(Config{})
	defer sys.Close()
	var a, b stm.Word
	th := sys.Register()
	defer th.Unregister()
	th.Atomic(func(tx stm.Txn) { tx.Write(&a, 7); tx.Write(&b, 7) })

	reader := sys.Register().(*thread)
	defer reader.Unregister()
	tx := &reader.txn
	tx.readOnly = true
	tx.Begin(1)
	oc := stm.RunAttempt(func() {
		if tx.Read(&a) != 7 {
			t.Error("bad read")
		}
		// A writer commits a "silent" store: same value back. The
		// global sequence moves but the reader's value set is intact.
		th.Atomic(func(inner stm.Txn) { inner.Write(&a, 7) })
		if tx.Read(&b) != 7 { // triggers revalidation against new seq
			t.Error("bad read of b")
		}
		tx.Commit()
	})
	if oc != stm.Committed {
		t.Fatal("silent store aborted a value-validating reader")
	}
}

func TestWriterChangesAbortReader(t *testing.T) {
	sys := New(Config{})
	defer sys.Close()
	var a, b stm.Word
	th := sys.Register()
	defer th.Unregister()

	reader := sys.Register().(*thread)
	defer reader.Unregister()
	tx := &reader.txn
	tx.readOnly = true
	tx.Begin(1)
	oc := stm.RunAttempt(func() {
		_ = tx.Read(&a)
		th.Atomic(func(inner stm.Txn) { inner.Write(&a, 99) })
		_ = tx.Read(&b) // must detect the changed value and abort
		tx.Commit()
	})
	if oc != stm.Conflicted {
		t.Fatal("reader survived a conflicting value change")
	}
}

func TestSequenceLockParity(t *testing.T) {
	sys := New(Config{})
	defer sys.Close()
	var wg sync.WaitGroup
	var w stm.Word
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			for i := 0; i < 500; i++ {
				th.Atomic(func(tx stm.Txn) { tx.Write(&w, tx.Read(&w)+1) })
			}
		}()
	}
	wg.Wait()
	if sys.seq.Load()%2 != 0 {
		t.Fatal("global sequence lock left odd (writer crashed mid-commit?)")
	}
	if w.Load() != 2000 {
		t.Fatalf("w=%d want 2000", w.Load())
	}
}
