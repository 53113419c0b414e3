//go:build mvstmfault

// The mutation self-test: built only under the mvstmfault tag, which
// deliberately weakens mvstm's read validation (version-list traversals
// serve uncommitted TBD heads — see internal/mvstm/fault_on.go). It proves
// the histcheck torture subsystem catches a real consistency bug rather
// than vacuously passing. Run with:
//
//	go test -tags mvstmfault -run FaultInjection ./internal/stmtest/
//
// Other tests in this package are expected to fail under the tag; always
// filter with -run.
package stmtest

import (
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/ds/hashmap"
	"repro/internal/histcheck"
	"repro/internal/mvstm"
	"repro/internal/stm"
)

// TestFaultInjectionCaughtByChecker drives one deterministic schedule per
// read path the faults weaken through the weakened TM and asserts both
// linearizability checkers reject the recorded history.
func TestFaultInjectionCaughtByChecker(t *testing.T) {
	if !mvstm.FaultInjected {
		t.Fatal("built without the mvstmfault tag")
	}
	t.Run("modeQ-tbd-dirty-read", faultTBDDirtyRead)
	t.Run("modeU-lax-in-place", faultLaxInPlaceTornRange)
}

// faultTBDDirtyRead is the version-list schedule: a word (standing for key
// 7's value) is initialized to 1 and versioned via a snapshot-isolation read
// (SI reads take the versioned path from their first attempt, making the
// test deterministic — no abort thresholds involved). A writer transaction then installs a TBD version
// holding 2 and pauses before cancelling; the weakened traverse serves that
// uncommitted 2 to a concurrent versioned reader. The writer cancels, so no
// committed operation ever wrote 2 — no linearization can explain the read.
func faultTBDDirtyRead(t *testing.T) {
	sys := mvstm.NewPinned(mvstm.Config{LockTableSize: SmallTables, DisableBG: true}, mvstm.ModeQ)
	defer sys.Close()

	const key = 7
	var w stm.Word
	h := histcheck.NewHistory(2, 4)
	wrec, rrec := h.Recorder(0), h.Recorder(1)

	init := sys.RegisterMV()
	tok := wrec.Invoke(histcheck.Insert, key, 1)
	if !init.Atomic(func(tx stm.Txn) { tx.Write(&w, 1) }) {
		t.Fatal("init txn failed")
	}
	wrec.Return(tok, true, 0, 0, 0)
	init.Unregister()

	// Version the address: the SI read finds it unversioned and installs a
	// version list holding the current value 1.
	reader := sys.RegisterMV()
	defer reader.Unregister()
	if !reader.AtomicSI(func(tx stm.Txn) { _ = tx.Read(&w) }) {
		t.Fatal("versioning SI read failed")
	}

	// Writer: leave a TBD version of 2 pending, then cancel.
	pending := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := sys.RegisterMV()
		defer th.Unregister()
		th.Atomic(func(tx stm.Txn) {
			tx.Write(&w, 2)
			close(pending)
			<-release
			tx.Cancel()
		})
	}()
	<-pending

	var got uint64
	tok = rrec.Invoke(histcheck.Search, key, 0)
	if !reader.AtomicSI(func(tx stm.Txn) { got = tx.Read(&w) }) {
		t.Fatal("reader SI txn failed")
	}
	rrec.Return(tok, true, got, 0, 0)
	close(release)
	<-done

	// The injected fault must actually have fired: without it the reader's
	// snapshot (traverse skips the TBD head) would hold 1.
	if got != 2 {
		t.Fatalf("fault injection did not produce a dirty read: read %d, want 2", got)
	}

	ops := h.Ops()
	res := histcheck.Check(ops, 0)
	if res.Ok {
		t.Fatalf("checker accepted a dirty-read history: %v", ops)
	}
	t.Logf("checker correctly rejected the weakened history: %s", res.Reason)

	// The partitioned per-key checker must reject the same history: the
	// dirty read is a single-key violation, exactly the regime where the
	// decomposition is exact.
	pres := histcheck.CheckPartitioned(ops, 0)
	if pres.Ok {
		t.Fatalf("partitioned checker accepted a dirty-read history: %v", ops)
	}
	t.Logf("partitioned checker also rejected it: %s", pres.Reason)

	// Control: the same schedule with the consistent snapshot value is
	// linearizable — it is specifically the uncommitted 2 that is illegal.
	fixed := make([]histcheck.Op, len(ops))
	copy(fixed, ops)
	for i := range fixed {
		if fixed[i].Kind == histcheck.Search {
			fixed[i].RVal = 1
		}
	}
	if res := histcheck.Check(fixed, 0); !res.Ok {
		t.Fatalf("control history rejected: %s", res.Reason)
	}
	if res := histcheck.CheckPartitioned(fixed, 0); !res.Ok {
		t.Fatalf("control history rejected by partitioned checker: %s", res.Reason)
	}
}

// faultLaxInPlaceTornRange is the Mode U in-place schedule. Two words stand
// for the presence of keys 1 and 2; key 1 starts present. A versioned reader
// (SI, so versioned from its first attempt) range-scans both keys: it reads
// key 1's word — present — and then, before it reads key 2's, one writer
// deletes key 1 and, after that returned, inserts key 2. Neither write
// aborts, so both commit at the reader's own read clock. A sound read sends
// key 2's word to its version list (lock version not below the read clock)
// and finds it absent at the snapshot; the weakened in-place rule accepts
// the lock version that equals the read clock and serves the insert. The
// scan reports both keys present, a state that never existed: the delete
// returned before the insert was invoked.
func faultLaxInPlaceTornRange(t *testing.T) {
	sys := mvstm.NewPinned(mvstm.Config{LockTableSize: 1 << 12, DisableBG: true}, mvstm.ModeU)
	defer sys.Close()

	const k1, k2 = 1, 2
	var present [2]stm.Word
	h := histcheck.NewHistory(2, 4)
	wrec, rrec := h.Recorder(0), h.Recorder(1)

	writer, reader := sys.RegisterMV(), sys.RegisterMV()
	defer writer.Unregister()
	defer reader.Unregister()
	set := func(kind histcheck.Kind, key uint64, w *stm.Word, v uint64) {
		tok := wrec.Invoke(kind, key, key)
		if !writer.Atomic(func(tx stm.Txn) { tx.Write(w, v) }) {
			t.Fatal("writer txn failed")
		}
		wrec.Return(tok, true, 0, 0, 0)
	}
	set(histcheck.Insert, k1, &present[0], 1)
	// A rollback advances the clock: the reader's read clock is then above
	// the Mode U timestamp the initial versions carry, so a sound build
	// serves this schedule from the lists on the first attempt.
	writer.Atomic(func(tx stm.Txn) { tx.Cancel() })

	var count int
	attempts := 0
	tok := rrec.Invoke(histcheck.Range, k1, k2)
	if !reader.AtomicSI(func(tx stm.Txn) {
		attempts++
		count = int(tx.Read(&present[0]))
		if attempts == 1 {
			set(histcheck.Delete, k1, &present[0], 0)
			set(histcheck.Insert, k2, &present[1], 1)
		}
		count += int(tx.Read(&present[1]))
	}) {
		t.Fatal("reader SI txn failed")
	}
	// The injected fault must actually have fired, and on the in-place
	// path: no read of the scan reached a version list.
	if count != 2 || attempts != 1 {
		t.Fatalf("fault injection did not tear the scan: count %d after %d attempts, want 2 after 1", count, attempts)
	}
	rrec.Return(tok, true, 0, count, k1+k2)
	if n := sys.Stats().VersionListReads; n != 0 {
		t.Fatalf("%d reads went to a version list; the torn value must come from the in-place path", n)
	}

	ops := h.Ops()
	if res := histcheck.Check(ops, 0); res.Ok {
		t.Fatalf("checker accepted a torn-scan history: %v", ops)
	} else {
		t.Logf("checker correctly rejected the weakened history: %s", res.Reason)
	}
	if res := histcheck.CheckPartitioned(ops, 0); res.Ok {
		t.Fatalf("partitioned checker accepted a torn-scan history: %v", ops)
	} else {
		t.Logf("partitioned checker also rejected it: %s", res.Reason)
	}

	// Control: the same schedule with the snapshot a sound read returns
	// (key 1 alone) is linearizable.
	fixed := make([]histcheck.Op, len(ops))
	copy(fixed, ops)
	for i := range fixed {
		if fixed[i].Kind == histcheck.Range {
			fixed[i].RCount, fixed[i].RSum = 1, k1
		}
	}
	if res := histcheck.Check(fixed, 0); !res.Ok {
		t.Fatalf("control history rejected: %s", res.Reason)
	}
	if res := histcheck.CheckPartitioned(fixed, 0); !res.Ok {
		t.Fatalf("control history rejected by partitioned checker: %s", res.Reason)
	}
}

// TestFaultInjectionCaughtAtSoakScale proves the partitioned checker keeps
// its teeth at the history sizes the monolithic gate could never reach:
// the fuzzer drives soak-size recorded rounds through the weakened TM
// (all injected faults live — TBD dirty reads and the lax "<=" acceptance in
// traverse and in the Mode U in-place read)
// and must catch a non-linearizable history well within the deadline. The
// eager thresholds (K1=1) put every round on the versioned read path the
// faults corrupt, and the rounds hammer the combinations whose long
// read-only scans ride that path hardest — SizeTx sweeping every hashmap
// bucket and RangeTx sweeping the (a,b)-tree — interleaved with the
// skewed point mix that feeds the version lists.
func TestFaultInjectionCaughtAtSoakScale(t *testing.T) {
	if !mvstm.FaultInjected {
		t.Fatal("built without the mvstmfault tag")
	}
	threads, opsPerThread := 4, 1000
	if raceEnabled {
		opsPerThread = 400
	}
	// The structures are sized like stmtorture's rounds (capacity
	// 4·threads·ops, hashmap buckets 10× that): the resulting
	// full-structure SizeTx/RangeTx scans are long versioned read-only
	// transactions, which is precisely the tear window the faults open.
	// Shrinking the bucket array by sizing to the key range instead makes
	// the faults fire orders of magnitude more rarely.
	capacity := 4 * threads * opsPerThread
	sizeHeavy, _ := histcheck.ProfileByName("size-heavy")
	rangeHeavy, _ := histcheck.ProfileByName("range-heavy")
	rounds := []struct {
		p  histcheck.Profile
		ds func() ds.Map
	}{
		{sizeHeavy, func() ds.Map { return hashmap.New(10*capacity, capacity) }},
		{rangeHeavy, func() ds.Map { return abtree.New(capacity) }},
	}
	deadline := time.Now().Add(240 * time.Second)
	checked := 0
	for round := 0; time.Now().Before(deadline); round++ {
		rc := rounds[round%len(rounds)]
		sys := mvstm.New(mvstm.Config{LockTableSize: 1 << 16, K1: 1, K2: 2, K3: 2, S: 2})
		m := rc.ds()
		h := histcheck.RunHistory(sys, m, rc.p, threads, opsPerThread, uint64(round)*0x9e3779b97f4a7c15+1)
		sys.Close()
		if h.Dropped() != 0 {
			t.Fatalf("recorder dropped %d ops", h.Dropped())
		}
		ops := h.Ops()
		checked += len(ops)
		res := histcheck.CheckPartitioned(ops, 0)
		if res.LimitHit {
			continue
		}
		if !res.Ok {
			t.Logf("fuzzer caught the injected fault after %d soak rounds (%d ops checked): %s",
				round+1, checked, res.Reason)
			return
		}
	}
	t.Fatalf("fuzzer failed to catch the injected faults at soak scale (%d ops checked)", checked)
}
