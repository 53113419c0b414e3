package mvstm

import (
	"testing"
	"testing/quick"

	"repro/internal/stm"
)

// testConfig disables the background thread so tests drive transitions
// deterministically via bgStep.
func testConfig() Config {
	return Config{LockTableSize: 1 << 8, DisableBG: true}
}

func TestModeCounterCycle(t *testing.T) {
	for c, want := range map[uint64]Mode{0: ModeQ, 1: ModeQtoU, 2: ModeU, 3: ModeUtoQ, 4: ModeQ, 7: ModeUtoQ} {
		if got := modeOf(c); got != want {
			t.Errorf("modeOf(%d)=%v want %v", c, got, want)
		}
	}
}

func TestDeltaRingThreshold(t *testing.T) {
	var r deltaRing
	r.init(10, 0.10) // prefix = 1 element = max
	if _, ok := r.threshold(); ok {
		t.Fatal("threshold available before ring filled")
	}
	for i := 1; i <= 10; i++ {
		r.push(uint64(i * 10))
	}
	th, ok := r.threshold()
	if !ok || th != 100 {
		t.Fatalf("threshold=(%d,%v) want (100,true): P=10%% of L=10 is the max", th, ok)
	}
	// Wider prefix averages the top half.
	var r2 deltaRing
	r2.init(4, 0.5)
	for _, v := range []uint64{10, 40, 20, 30} {
		r2.push(v)
	}
	th2, _ := r2.threshold()
	if th2 != 35 { // mean of {40, 30}
		t.Fatalf("threshold=%d want 35", th2)
	}
}

func TestVersionListTraverse(t *testing.T) {
	vl := &versionList{}
	push := func(ts uint64) *versionNode {
		vn := &versionNode{}
		vn.meta.Store(makeMeta(ts, false))
		vn.data.Store(ts * 100)
		vn.older.Store(vl.head.Load())
		vl.head.Store(vn)
		return vn
	}
	push(5)
	push(10)
	del := push(15)
	push(20)
	del.meta.Store(makeMeta(deletedTs, false)) // rolled back version

	cases := []struct {
		rClock uint64
		want   uint64
		ok     bool
	}{
		{25, 2000, true},
		{21, 2000, true},
		{20, 1000, true}, // strict: ts==rClock excluded; 15 deleted: skip to 10
		{19, 1000, true},
		{11, 1000, true},
		{10, 500, true}, // strict again
		{6, 500, true},
		{5, 0, false}, // nothing strictly older: abort
		{4, 0, false},
	}
	for _, c := range cases {
		got, ok := vl.traverse(c.rClock)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("traverse(%d) = (%d,%v) want (%d,%v)", c.rClock, got, ok, c.want, c.ok)
		}
	}
}

func TestTraverseWaitsOnTBDHead(t *testing.T) {
	vl := &versionList{}
	committed := &versionNode{}
	committed.meta.Store(makeMeta(3, false))
	committed.data.Store(30)
	vl.head.Store(committed)

	tbd := &versionNode{}
	tbd.meta.Store(makeMeta(5, true))
	tbd.data.Store(50)
	tbd.older.Store(committed)
	vl.head.Store(tbd)

	// A reader above the TBD timestamp must wait; resolve from another
	// goroutine.
	done := make(chan uint64)
	go func() {
		v, ok := vl.traverse(10)
		if !ok {
			done <- 0
			return
		}
		done <- v
	}()
	// Let the reader spin, then commit the TBD version at ts 7.
	tbd.meta.Store(makeMeta(7, false))
	if got := <-done; got != 50 {
		t.Fatalf("waiting reader got %d want 50", got)
	}

	// A reader below the TBD timestamp skips it without waiting.
	if got, ok := vl.traverse(4); !ok || got != 30 {
		t.Fatalf("low reader got (%d,%v) want (30,true)", got, ok)
	}
}

// TestTraverseProperty: for any set of committed version timestamps, the
// traversal returns the newest version with ts <= rClock.
func TestTraverseProperty(t *testing.T) {
	f := func(tss []uint16, rc uint16) bool {
		vl := &versionList{}
		best := uint64(0)
		seen := map[uint64]bool{}
		// Version lists are newest-first: timestamps pushed ascending.
		sorted := append([]uint16(nil), tss...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		for _, ts16 := range sorted {
			ts := uint64(ts16) + 1
			if seen[ts] {
				continue
			}
			seen[ts] = true
			vn := &versionNode{}
			vn.meta.Store(makeMeta(ts, false))
			vn.data.Store(ts * 2)
			vn.older.Store(vl.head.Load())
			vl.head.Store(vn)
			if ts < uint64(rc) && ts > best {
				best = ts
			}
		}
		got, ok := vl.traverse(uint64(rc))
		if best == 0 {
			return !ok
		}
		return ok && got == best*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModeTransitionSequence(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()

	if s.Mode() != ModeQ {
		t.Fatalf("initial mode %v want Q", s.Mode())
	}
	// Worker CAS: Q -> QtoU.
	c := s.modeCounter.Load()
	if !s.modeCounter.CompareAndSwap(c, c+1) {
		t.Fatal("CAS failed with no contention")
	}
	th.slot.sticky.Store(true)
	if s.Mode() != ModeQtoU {
		t.Fatalf("mode %v want QtoU", s.Mode())
	}
	// No active local-Q updaters: bg advances to U and records the first
	// observed Mode U timestamp.
	s.bgStep()
	if s.Mode() != ModeU {
		t.Fatalf("mode %v want U", s.Mode())
	}
	if s.firstObsModeUTs.Load() == 0 {
		t.Fatal("firstObsModeUTs not recorded on entering Mode U")
	}
	// Sticky bit holds the TM in Mode U.
	s.bgStep()
	if s.Mode() != ModeU {
		t.Fatalf("mode %v want U while sticky", s.Mode())
	}
	th.slot.sticky.Store(false)
	s.bgStep()
	if s.Mode() != ModeUtoQ {
		t.Fatalf("mode %v want UtoQ", s.Mode())
	}
	// No active local-U versioned readers: back to Q; timestamp
	// invalidated.
	s.bgStep()
	if s.Mode() != ModeQ {
		t.Fatalf("mode %v want Q", s.Mode())
	}
	if s.firstObsModeUTs.Load() != 0 {
		t.Fatal("firstObsModeUTs not invalidated on returning to Mode Q")
	}
}

func TestDrainBlocksOnActiveOldTxn(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()

	// Simulate an update transaction still running at local mode Q.
	th.slot.kind.Store(kindUpdater)
	th.slot.localModeCounter.Store(0)
	c := s.modeCounter.Load()
	s.modeCounter.CompareAndSwap(c, c+1) // -> QtoU
	s.bgStep()
	if s.Mode() != ModeQtoU {
		t.Fatal("QtoU->U transitioned despite an active local-Q updater")
	}
	// The updater finishes; drain completes.
	th.slot.localModeCounter.Store(idleCounter)
	s.bgStep()
	if s.Mode() != ModeU {
		t.Fatalf("mode %v want U after drain", s.Mode())
	}

	// Same for UtoQ: an active local-U versioned reader blocks.
	th.slot.sticky.Store(false)
	s.bgStep() // U -> UtoQ
	if s.Mode() != ModeUtoQ {
		t.Fatalf("mode %v want UtoQ", s.Mode())
	}
	th.slot.kind.Store(kindVersioned)
	th.slot.localModeCounter.Store(2) // local mode U
	s.bgStep()
	if s.Mode() != ModeUtoQ {
		t.Fatal("UtoQ->Q transitioned despite an active local-U versioned reader")
	}
	th.slot.localModeCounter.Store(idleCounter)
	s.bgStep()
	if s.Mode() != ModeQ {
		t.Fatalf("mode %v want Q after reader drain", s.Mode())
	}
}

// TestTable1ModeMatrix asserts the versioning duties of Table 1.
func TestTable1ModeMatrix(t *testing.T) {
	t.Run("ModeQ_writer_skips_unversioned", func(t *testing.T) {
		s := New(testConfig())
		defer s.Close()
		th := s.RegisterMV()
		defer th.Unregister()
		var w stm.Word
		th.Atomic(func(tx stm.Txn) { tx.Write(&w, 7) })
		idx := s.locks.IndexOf(&w)
		if s.getVList(idx, &w) != nil {
			t.Fatal("Mode Q writer versioned an unversioned address")
		}
	})
	t.Run("ModeQ_writer_updates_versioned", func(t *testing.T) {
		s := New(testConfig())
		defer s.Close()
		th := s.RegisterMV()
		defer th.Unregister()
		var w stm.Word
		w.Store(1)
		// Version the address directly (as a versioned reader would).
		hash := s.locks.Hash(&w)
		idx := hash & s.locks.Mask()
		s.versionAddr(idx, hash, &w, 1, s.clock.Load())
		th.Atomic(func(tx stm.Txn) { tx.Write(&w, 9) })
		vl := s.getVList(idx, &w)
		if vl == nil {
			t.Fatal("version list vanished")
		}
		if got, ok := vl.traverse(s.clock.Load() + 1); !ok || got != 9 {
			t.Fatalf("versioned write missing: traverse=(%d,%v) want (9,true)", got, ok)
		}
	})
	t.Run("ModeU_writer_versions", func(t *testing.T) {
		s := NewPinned(Config{LockTableSize: 1 << 8, DisableBG: true}, ModeU)
		defer s.Close()
		th := s.RegisterMV()
		defer th.Unregister()
		var w stm.Word
		w.Store(3)
		// Age the clock past the first observed Mode U timestamp so the
		// initial version (stamped at firstObsModeUTs) and the write's
		// committed version get distinct timestamps. (With no aborts
		// they coincide and the newer value shadows the initial one,
		// which is also correct but not what this test targets.)
		s.clock.Increment()
		s.clock.Increment()
		th.Atomic(func(tx stm.Txn) { tx.Write(&w, 8) })
		idx := s.locks.IndexOf(&w)
		vl := s.getVList(idx, &w)
		if vl == nil {
			t.Fatal("Mode U writer did not version the address")
		}
		// The initial version must carry the OLD value at the first
		// observed Mode U timestamp, the new value above it.
		if got, ok := vl.traverse(s.firstObsModeUTs.Load() + 1); !ok || got != 3 {
			t.Fatalf("initial version = (%d,%v) want (3,true)", got, ok)
		}
		if got, ok := vl.traverse(s.clock.Load() + 1); !ok || got != 8 {
			t.Fatalf("committed version = (%d,%v) want (8,true)", got, ok)
		}
	})
	t.Run("ModeQ_versioned_reader_versions", func(t *testing.T) {
		s := New(testConfig())
		defer s.Close()
		th := s.RegisterMV()
		defer th.Unregister()
		var w stm.Word
		w.Store(5)
		tx := &th.txn
		tx.begin(true, true, false) // versioned read-only, local mode Q
		got := stm.RunAttempt(func() {
			if v := tx.Read(&w); v != 5 {
				t.Errorf("versioned read got %d want 5", v)
			}
		})
		if got != stm.Committed {
			t.Fatalf("versioned read aborted")
		}
		idx := s.locks.IndexOf(&w)
		if s.getVList(idx, &w) == nil {
			t.Fatal("Mode Q versioned reader did not version the address")
		}
	})
	t.Run("ModeU_versioned_reader_does_not_version", func(t *testing.T) {
		s := NewPinned(Config{LockTableSize: 1 << 8, DisableBG: true}, ModeU)
		defer s.Close()
		th := s.RegisterMV()
		defer th.Unregister()
		var w stm.Word
		w.Store(6)
		tx := &th.txn
		tx.begin(true, true, false)
		oc := stm.RunAttempt(func() {
			if v := tx.Read(&w); v != 6 {
				t.Errorf("mode U read got %d want 6", v)
			}
		})
		if oc != stm.Committed {
			t.Fatal("mode U read aborted")
		}
		idx := s.locks.IndexOf(&w)
		if s.getVList(idx, &w) != nil {
			t.Fatal("Mode U reader versioned an address (it must assume versioning)")
		}
	})
}

func TestVersioningPersistsAcrossReaderAbort(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	var w stm.Word
	w.Store(11)
	// Make validation fail: set the lock's version to the current clock
	// (>= any rClock drawn now).
	l := s.locks.Of(&w)
	l.Release(s.clock.Load())

	tx := &th.txn
	tx.begin(true, true, false)
	oc := stm.RunAttempt(func() { tx.Read(&w) })
	if oc != stm.Conflicted {
		t.Fatal("read should abort when lock version >= rClock")
	}
	tx.Rollback()
	// §4.1: the address stays versioned even though the reader aborted.
	idx := s.locks.IndexOf(&w)
	if s.getVList(idx, &w) == nil {
		t.Fatal("versioning did not persist across the reader's abort")
	}
}

func TestUnversioningPass(t *testing.T) {
	cfg := testConfig()
	cfg.UnversionThreshold = 5
	s := New(cfg)
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()

	var w stm.Word
	w.Store(9)
	hash := s.locks.Hash(&w)
	idx := hash & s.locks.Mask()
	s.versionAddr(idx, hash, &w, 9, s.clock.Load())
	if s.getVList(idx, &w) == nil {
		t.Fatal("setup: address not versioned")
	}
	// Not stale yet: pass must keep it.
	s.bgStep()
	if s.getVList(idx, &w) == nil {
		t.Fatal("bucket unversioned before threshold")
	}
	// Age the clock past the threshold; now the pass must unversion.
	for i := 0; i < 10; i++ {
		s.clock.Increment()
	}
	s.bgStep()
	if s.getVList(idx, &w) != nil {
		t.Fatal("stale bucket not unversioned")
	}
	if s.bloomContains(idx, hash) {
		t.Fatal("bloom filter not reset on unversioning")
	}
	if s.Stats().Unversionings == 0 {
		t.Fatal("unversioning not counted")
	}
	// Unversioning must not run when pinned to Mode U.
	s2 := NewPinned(Config{LockTableSize: 1 << 8, DisableBG: true, UnversionThreshold: 1}, ModeU)
	defer s2.Close()
	var w2 stm.Word
	hash2 := s2.locks.Hash(&w2)
	idx2 := hash2 & s2.locks.Mask()
	s2.versionAddr(idx2, hash2, &w2, 0, s2.clock.Load())
	for i := 0; i < 10; i++ {
		s2.clock.Increment()
	}
	s2.bgStep()
	if s2.getVList(idx2, &w2) == nil {
		t.Fatal("unversioning ran outside Mode Q")
	}
}

func TestReadOnlyBecomesVersionedAfterK1(t *testing.T) {
	cfg := testConfig()
	cfg.K1 = 2
	s := New(cfg)
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	var w stm.Word
	w.Store(4)
	// Arrange two validation failures: lock version == current clock.
	l := s.locks.Of(&w)
	bump := func() { l.Release(s.clock.Load()) }
	bump()
	attempts := 0
	ok := th.ReadOnly(func(tx stm.Txn) {
		attempts++
		if attempts == 2 {
			bump() // fail the second attempt too
		}
		tx.Read(&w)
	})
	if !ok {
		t.Fatal("read-only txn did not commit")
	}
	if attempts < 3 {
		t.Fatalf("expected at least 3 attempts, got %d", attempts)
	}
	st := s.Stats()
	if st.VersionedCommits == 0 {
		t.Fatal("transaction did not switch to the versioned path after K1 aborts")
	}
	if st.AddrVersioned == 0 {
		t.Fatal("versioned reader did not version the address")
	}
}

// TestMinModeUReadsRecorded: a versioned Mode U commit that needed a version
// list lowers the minimum Mode U read count to its size (the commit that
// needed none is TestModeUEscalatesOnFirstAbort).
func TestMinModeUReadsRecorded(t *testing.T) {
	s := NewPinned(Config{LockTableSize: 1 << 8, DisableBG: true}, ModeU)
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	words := make([]stm.Word, 5)
	s.clock.Increment() // the initial versions (at the Mode U timestamp) fall below rClock
	tx := &th.txn
	tx.begin(true, true, false)
	commitWrite(t, s, &words[0], 1) // after begin: this read must come from the list
	oc := stm.RunAttempt(func() {
		for i := range words {
			if v := tx.Read(&words[i]); v != 0 {
				t.Errorf("words[%d]=%d want the snapshot's 0", i, v)
			}
		}
		tx.Commit()
	})
	if oc != stm.Committed {
		t.Fatal("versioned mode U txn aborted")
	}
	if got := s.minModeUReads.Load(); got != 5 {
		t.Fatalf("minModeUReads=%d want 5", got)
	}
}

func TestSnapshotIsolationWrites(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	var a, b stm.Word
	th.Atomic(func(tx stm.Txn) {
		tx.Write(&a, 10)
		tx.Write(&b, 20)
	})
	// SI transaction: versioned reads, unversioned writes.
	ok := th.AtomicSI(func(tx stm.Txn) {
		av := tx.Read(&a)
		tx.Write(&b, av+1)
	})
	if !ok {
		t.Fatal("SI txn did not commit")
	}
	th.ReadOnly(func(tx stm.Txn) {
		if got := tx.Read(&b); got != 11 {
			t.Errorf("SI write lost: b=%d want 11", got)
		}
	})
}

func TestStickyBitClearsAfterSmallTxns(t *testing.T) {
	cfg := testConfig()
	cfg.S = 3
	s := New(cfg)
	defer s.Close()
	th := s.RegisterMV()
	defer th.Unregister()
	th.sticky = true
	th.slot.sticky.Store(true)
	th.samplePending = true
	var w stm.Word
	// S consecutive small (unversioned) commits clear the sticky bit.
	for i := 0; i < cfg.S+1; i++ {
		th.Atomic(func(tx stm.Txn) { tx.Write(&w, uint64(i)) })
	}
	if th.slot.sticky.Load() {
		t.Fatal("sticky bit not cleared after S consecutive small transactions")
	}
}
