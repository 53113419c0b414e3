// Bank: concurrent random transfers with a concurrent auditor.
//
// The auditor repeatedly sums every account in one read-only transaction —
// a long-running read that classic unversioned STMs abort under write
// pressure. Run it under each TM to compare how many audits complete:
//
//	go run ./examples/bank            # multiverse (default)
//	go run ./examples/bank -tm dctl
//	go run ./examples/bank -tm tl2
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/registry"
	"repro/internal/stm"
	"repro/internal/workload"
)

func main() {
	tm := flag.String("tm", "multiverse", "TM to run on (multiverse, dctl, tl2, tinystm, norec)")
	accounts := flag.Int("accounts", 4096, "number of accounts")
	workers := flag.Int("workers", 4, "transfer threads")
	dur := flag.Duration("dur", time.Second, "run duration")
	flag.Parse()

	// 20000 attempts: where the TMs without a long-read path give up, as in
	// the paper's harness.
	sys, err := registry.NewTM(*tm, registry.Params{LockTable: 1 << 16, MaxAttempts: 20000})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer sys.Close()

	bank := make([]stm.Word, *accounts)
	init := sys.Register()
	init.Atomic(func(tx stm.Txn) {
		for i := range bank {
			tx.Write(&bank[i], 100)
		}
	})
	init.Unregister()
	total := uint64(*accounts) * 100

	var stop atomic.Bool
	var transfers, audits, badAudits, failedAudits atomic.Uint64
	var wg sync.WaitGroup

	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			r := workload.NewRng(seed)
			for !stop.Load() {
				from, to := r.Intn(*accounts), r.Intn(*accounts)
				if from == to {
					continue
				}
				th.Atomic(func(tx stm.Txn) {
					a := tx.Read(&bank[from])
					if a == 0 {
						return
					}
					tx.Write(&bank[from], a-1)
					tx.Write(&bank[to], tx.Read(&bank[to])+1)
				})
				transfers.Add(1)
			}
		}(uint64(w + 1))
	}
	wg.Add(1)
	go func() { // auditor
		defer wg.Done()
		th := sys.Register()
		defer th.Unregister()
		for !stop.Load() {
			var sum uint64
			ok := th.ReadOnly(func(tx stm.Txn) {
				sum = 0
				for i := range bank {
					sum += tx.Read(&bank[i])
				}
			})
			if !ok {
				failedAudits.Add(1)
				continue
			}
			audits.Add(1)
			if sum != total {
				badAudits.Add(1)
			}
		}
	}()

	time.Sleep(*dur)
	stop.Store(true)
	wg.Wait()

	st := sys.Stats()
	fmt.Printf("tm=%s transfers=%d audits=%d failed-audits=%d inconsistent-audits=%d\n",
		*tm, transfers.Load(), audits.Load(), failedAudits.Load(), badAudits.Load())
	fmt.Printf("commits=%d aborts=%d versioned-commits=%d mode-switches=%d\n",
		st.Commits, st.Aborts, st.VersionedCommits, st.ModeSwitches)
	if badAudits.Load() > 0 {
		fmt.Println("ERROR: atomicity violated!")
	}
}
