package mvstm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
)

// TestLongReadsUnderUpdatersEndToEnd is the paper's headline scenario in
// miniature (Figures 3/4): readers scanning a large array while dedicated
// updaters overwrite it. Unversioned attempts keep aborting; the TM must
// (1) switch the readers to the versioned path, (2) transition the mode
// machine toward Mode U via the worker CAS and background thread, and
// (3) commit every scan with a consistent snapshot.
func TestLongReadsUnderUpdatersEndToEnd(t *testing.T) {
	cfg := Config{
		LockTableSize: 1 << 10,
		K1:            4, // switch to versioned quickly at test scale
		K2:            4,
		K3:            4,
		BGInterval:    50 * time.Microsecond,
	}
	s := New(cfg)
	defer s.Close()

	const n = 256
	words := make([]stm.Word, n)
	init := s.RegisterMV()
	init.Atomic(func(tx stm.Txn) {
		for i := range words {
			tx.Write(&words[i], 1)
		}
	})
	init.Unregister()
	// Invariant: updaters move one unit between two words per transaction,
	// so every consistent snapshot sums to exactly n.
	//
	// The race the test is about is forced, not hoped for: every scan
	// attempt parks halfway through until each updater has committed a
	// move inside the half not yet read — a write at or above the scan's
	// read clock, which an unversioned attempt must abort on and a
	// versioned one must read around.
	const updaters = 2
	var stop atomic.Bool
	var wg sync.WaitGroup
	var req, ack [updaters]chan struct{}
	for u := 0; u < updaters; u++ {
		req[u], ack[u] = make(chan struct{}), make(chan struct{})
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			th := s.RegisterMV()
			defer th.Unregister()
			move := func(a, b int) (moved bool) {
				th.Atomic(func(tx stm.Txn) {
					moved = false
					av := tx.Read(&words[a])
					if a == b || av == 0 {
						return
					}
					tx.Write(&words[a], av-1)
					tx.Write(&words[b], tx.Read(&words[b])+1)
					moved = true
				})
				return moved
			}
			for i := u + 1; !stop.Load(); i++ {
				select {
				case <-req[u]:
					for j := i; !move(n/2+j%(n/2), n/2+(j*7+1)%(n/2)); j++ {
					}
					ack[u] <- struct{}{}
				default:
					move(i%n, (i*7+1)%n)
				}
			}
		}(u)
	}

	scans, bad := 0, 0
	reader := s.RegisterMV()
	for scans < 40 {
		var sum uint64
		ok := reader.ReadOnly(func(tx stm.Txn) {
			sum = 0
			for i := range words {
				if i == n/2 {
					for u := range req {
						req[u] <- struct{}{}
					}
					for u := range ack {
						<-ack[u]
					}
				}
				sum += tx.Read(&words[i])
			}
		})
		if !ok {
			continue
		}
		scans++
		if sum != n {
			bad++
		}
	}
	stop.Store(true)
	wg.Wait()
	reader.Unregister()

	if bad != 0 {
		t.Fatalf("%d of %d scans saw inconsistent sums", bad, scans)
	}
	st := s.Stats()
	if st.VersionedCommits == 0 {
		t.Error("no scan committed via the versioned path")
	}
	if st.AddrVersioned == 0 {
		t.Error("no address was ever versioned")
	}
	t.Logf("scans=%d versionedCommits=%d addrVersioned=%d modeSwitches=%d finalMode=%v",
		scans, st.VersionedCommits, st.AddrVersioned, st.ModeSwitches, s.Mode())
}

// TestModeRoundTripUnderWorkload drives the full Q→QtoU→U→UtoQ→Q cycle with
// live transactions: contention pushes the TM into Mode U; once the reader
// stops scanning (S consecutive small transactions clear the sticky bit),
// the background thread must bring it back to Mode Q and re-enable
// unversioning.
func TestModeRoundTripUnderWorkload(t *testing.T) {
	cfg := Config{
		LockTableSize:      1 << 10,
		K1:                 2,
		K2:                 2,
		K3:                 2,
		S:                  3,
		UnversionThreshold: 1,
		BGInterval:         50 * time.Microsecond,
	}
	s := New(cfg)
	defer s.Close()

	const n = 128
	words := make([]stm.Word, n)
	th := s.RegisterMV()
	defer th.Unregister()
	th.Atomic(func(tx stm.Txn) {
		for i := range words {
			tx.Write(&words[i], 1)
		}
	})

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := s.RegisterMV()
		defer w.Unregister()
		for i := 0; !stop.Load(); i++ {
			a := i % n
			w.Atomic(func(tx stm.Txn) {
				tx.Write(&words[a], tx.Read(&words[a])+n)
				tx.Write(&words[(a+1)%n], tx.Read(&words[(a+1)%n])+n)
			})
		}
	}()

	// Scan until the TM has reached Mode U at least once.
	reachedU := false
	deadline := time.Now().Add(10 * time.Second)
	for !reachedU && time.Now().Before(deadline) {
		th.ReadOnly(func(tx stm.Txn) {
			for i := range words {
				tx.Read(&words[i])
				if i%8 == 0 {
					runtime.Gosched() // interleave with the writer
				}
			}
		})
		if s.Mode() == ModeU || s.Mode() == ModeQtoU {
			reachedU = true
		}
	}
	stop.Store(true)
	wg.Wait()
	if !reachedU {
		t.Fatalf("TM never left Mode Q under heavy conflicts (mode=%v, stats=%+v)", s.Mode(), s.Stats())
	}

	// With the workload quiet, small transactions clear the sticky bit
	// and the bg thread must cycle back to Mode Q.
	deadline = time.Now().Add(10 * time.Second)
	for s.Mode() != ModeQ && time.Now().Before(deadline) {
		th.Atomic(func(tx stm.Txn) { tx.Write(&words[0], 1) }) // small txns
		time.Sleep(time.Millisecond)
	}
	if s.Mode() != ModeQ {
		t.Fatalf("TM stuck in mode %v after workload quiesced", s.Mode())
	}
	if s.Stats().ModeSwitches < 4 {
		t.Errorf("expected a full mode cycle, got %d switches", s.Stats().ModeSwitches)
	}
}
