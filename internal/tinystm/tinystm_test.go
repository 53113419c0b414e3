package tinystm

import (
	"sync"
	"testing"

	"repro/internal/stm"
)

func newSys() *System { return New(Config{LockTableSize: 1 << 10}) }

// TestTimestampExtension: TinySTM's signature feature. A reader that
// encounters a version newer than its snapshot revalidates its read set
// and, if intact, slides the snapshot forward instead of aborting.
func TestTimestampExtension(t *testing.T) {
	sys := newSys()
	defer sys.Close()
	writer := sys.Register()
	defer writer.Unregister()
	reader := sys.Register().(*thread)
	defer reader.Unregister()

	var a, b stm.Word
	writer.Atomic(func(tx stm.Txn) { tx.Write(&a, 1); tx.Write(&b, 1) })

	tx := &reader.txn
	tx.readOnly = true
	tx.Begin(1)
	oc := stm.RunAttempt(func() {
		_ = tx.Read(&a)
		// A disjoint writer advances the clock and stamps b's lock
		// with a version above the reader's snapshot...
		writer.Atomic(func(inner stm.Txn) { inner.Write(&b, 2) })
		// ...so this read triggers extension. a is untouched, so the
		// extension succeeds and the read returns the new value.
		if v := tx.Read(&b); v != 2 {
			t.Errorf("post-extension read = %d want 2", v)
		}
		tx.Commit()
	})
	if oc != stm.Committed {
		t.Fatal("extension should have saved this reader from aborting")
	}
}

func TestExtensionFailsWhenReadSetChanged(t *testing.T) {
	sys := newSys()
	defer sys.Close()
	writer := sys.Register()
	defer writer.Unregister()
	reader := sys.Register().(*thread)
	defer reader.Unregister()

	var a, b stm.Word
	tx := &reader.txn
	tx.readOnly = true
	tx.Begin(1)
	oc := stm.RunAttempt(func() {
		_ = tx.Read(&a)
		// The writer touches BOTH words: a's version changes, so the
		// extension triggered by reading b must fail.
		writer.Atomic(func(inner stm.Txn) { inner.Write(&a, 9); inner.Write(&b, 9) })
		_ = tx.Read(&b)
		tx.Commit()
	})
	if oc != stm.Conflicted {
		t.Fatal("reader observed a torn snapshot without aborting")
	}
}

// TestWriteThroughVisibility: encounter-time writes go to memory
// immediately (in-place), guarded by the lock.
func TestWriteThroughVisibility(t *testing.T) {
	sys := newSys()
	defer sys.Close()
	th := sys.Register()
	defer th.Unregister()
	var w stm.Word
	th.Atomic(func(tx stm.Txn) {
		tx.Write(&w, 7)
		if raw := w.Load(); raw != 7 {
			t.Errorf("write-through value not in place: %d", raw)
		}
	})
}

func TestAbortRestoresAndBumpsVersion(t *testing.T) {
	sys := newSys()
	defer sys.Close()
	th := sys.Register()
	defer th.Unregister()
	var w stm.Word
	w.Store(3)
	l := sys.locks.Of(&w)
	before := l.Load().Version()
	th.Atomic(func(tx stm.Txn) {
		tx.Write(&w, 8)
		tx.Cancel()
	})
	if w.Load() != 3 {
		t.Fatalf("undo log failed: w=%d want 3", w.Load())
	}
	after := l.Load().Version()
	if after <= before {
		t.Fatalf("abort must bump the lock version (ABA guard): %d -> %d", before, after)
	}
}

func TestConcurrentCounter(t *testing.T) {
	sys := newSys()
	defer sys.Close()
	var w stm.Word
	var wg sync.WaitGroup
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
	if w.Load() != 2000 {
		t.Fatalf("w=%d want 2000 (lost updates)", w.Load())
	}
}
