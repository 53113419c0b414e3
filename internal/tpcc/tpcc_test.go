package tpcc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dctl"
	"repro/internal/mvstm"
	"repro/internal/stm"
	"repro/internal/workload"
)

func small() Config { return Config{Warehouses: 1, DistrictsPerW: 4, CustomersPerD: 8} }

func TestPaymentLedgerInvariant(t *testing.T) {
	sys := dctl.New(dctl.Config{LockTableSize: 1 << 12})
	defer sys.Close()
	db := New(small())
	th := sys.Register()
	defer th.Unregister()
	r := workload.NewRng(2)
	var want uint64
	for i := 0; i < 200; i++ {
		amt := uint64(r.Intn(100)) + 1
		if !db.Payment(th, 0, r.Intn(4), r.Intn(8), amt) {
			t.Fatal("payment failed")
		}
		want += amt
	}
	wYTD, dSum, ok := db.WarehouseYTD(th, 0)
	if !ok || wYTD != want || dSum != want {
		t.Fatalf("wYTD=%d dSum=%d want %d", wYTD, dSum, want)
	}
}

// TestConcurrentConsistency runs concurrent payments while an auditor checks
// the warehouse/district ledger invariant atomically, then verifies the
// final ledgers against what the payers were told committed.
func TestConcurrentConsistency(t *testing.T) {
	for _, mk := range []struct {
		name string
		sys  stm.System
	}{
		{"dctl", dctl.New(dctl.Config{LockTableSize: 1 << 14})},
		{"multiverse", mvstm.New(mvstm.Config{LockTableSize: 1 << 14})},
	} {
		t.Run(mk.name, func(t *testing.T) {
			sys := mk.sys
			defer sys.Close()
			db := New(small())

			var stop atomic.Bool
			var wg sync.WaitGroup
			var paid atomic.Uint64
			for w := uint64(0); w < 3; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := sys.Register()
					defer th.Unregister()
					r := workload.NewRng(7 + w)
					for !stop.Load() {
						amt := uint64(r.Intn(100)) + 1
						if db.Payment(th, 0, r.Intn(4), r.Intn(8), amt) {
							paid.Add(amt)
						}
					}
				}()
			}
			th := sys.Register()
			defer th.Unregister()
			for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
				if wYTD, dSum, ok := db.WarehouseYTD(th, 0); ok && wYTD != dSum {
					stop.Store(true)
					wg.Wait()
					t.Fatalf("ledger invariant violated in a snapshot: w=%d districts=%d", wYTD, dSum)
				}
			}
			stop.Store(true)
			wg.Wait()
			if paid.Load() == 0 {
				t.Fatal("no payment committed")
			}
			if wYTD, dSum, _ := db.WarehouseYTD(th, 0); wYTD != paid.Load() || dSum != paid.Load() {
				t.Fatalf("final ledgers diverged: w=%d districts=%d, payers committed %d", wYTD, dSum, paid.Load())
			}
		})
	}
}
