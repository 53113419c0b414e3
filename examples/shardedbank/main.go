// Command shardedbank demonstrates the sharded multi-instance TM
// (internal/shard) end to end: accounts hash-partition across N Multiverse
// instances, same-shard transfers are ordinary atomic transactions, and
// cross-shard transfers are reconciled through per-shard settlement
// accounts — two single-shard transactions that each conserve their shard's
// balance, in the phase-reconciliation style of Narula et al. No
// transaction ever spans two shards, yet a concurrent auditor can still
// prove global conservation at any instant: its read-only snapshot query
// (one frozen shared-clock timestamp, every shard scanned on the versioned
// read path) sums every account and settlement across all shards
// atomically, without 2PC and without stopping the transfer traffic.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/ds/hashmap"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/workload"
)

// settleBase is the key range reserved for settlement accounts, far above
// any account id.
const settleBase = uint64(1) << 40

// settleBias keeps settlement balances positive for display; uint64
// arithmetic would conserve the total even without it.
const settleBias = uint64(1) << 32

func main() {
	var (
		accounts = flag.Int("accounts", 1024, "number of accounts")
		workers  = flag.Int("workers", 3, "transfer workers")
		shards   = flag.Int("shards", 4, "TM instances to shard across")
		dur      = flag.Duration("dur", time.Second, "run duration")
	)
	flag.Parse()

	backend, err := registry.ShardBackend("multiverse", registry.Params{LockTable: 1 << 14}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sys := shard.New(shard.Config{Shards: *shards, Backend: backend})
	defer sys.Close()
	bank := shard.NewMap(sys, func(int) ds.Map {
		return hashmap.New(1024, 4**accounts / *shards)
	})

	// One settlement account per shard, co-located by probing ShardOf:
	// cross-shard value in flight lives here, so every individual
	// transaction conserves its own shard's balance.
	settle := make([]uint64, *shards)
	for s, k := 0, settleBase; s < *shards; k++ {
		if sys.ShardOf(k) == s {
			settle[s] = k
			s++
		}
	}

	const initial = uint64(100)
	init := sys.RegisterSharded()
	for a := 1; a <= *accounts; a++ {
		if ins, ok := ds.Insert(init, bank, uint64(a), initial); !ok || !ins {
			fmt.Println("prefill failed")
			os.Exit(1)
		}
	}
	for _, k := range settle {
		if ins, ok := ds.Insert(init, bank, k, settleBias); !ok || !ins {
			fmt.Println("settlement prefill failed")
			os.Exit(1)
		}
	}
	init.Unregister()
	wantTotal := uint64(*accounts)*initial + uint64(*shards)*settleBias

	var transfers, crossShard, audits, violations atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := sys.RegisterSharded()
			defer th.Unregister()
			r := workload.NewRng(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				from := r.Next()%uint64(*accounts) + 1
				to := r.Next()%uint64(*accounts) + 1
				if from == to {
					continue
				}
				amt := r.Next()%5 + 1
				sf, st := sys.ShardOf(from), sys.ShardOf(to)
				if sf == st {
					// Same shard: one ordinary atomic transfer.
					th.Atomic(func(tx stm.Txn) {
						b, ok := bank.SearchTx(tx, from)
						if !ok || b < amt {
							return
						}
						bank.DeleteTx(tx, from)
						bank.InsertTx(tx, from, b-amt)
						c, _ := bank.SearchTx(tx, to)
						bank.DeleteTx(tx, to)
						bank.InsertTx(tx, to, c+amt)
					})
				} else {
					// Cross shard: debit into the source shard's
					// settlement account, then pay out of the target
					// shard's. Each transaction is single-shard and
					// conserves its shard's sum, so the global invariant
					// holds at every instant in between.
					moved := false
					th.Atomic(func(tx stm.Txn) {
						moved = false // body may rerun
						b, ok := bank.SearchTx(tx, from)
						if !ok || b < amt {
							return
						}
						bank.DeleteTx(tx, from)
						bank.InsertTx(tx, from, b-amt)
						sb, _ := bank.SearchTx(tx, settle[sf])
						bank.DeleteTx(tx, settle[sf])
						bank.InsertTx(tx, settle[sf], sb+amt)
						moved = true
					})
					if moved {
						th.Atomic(func(tx stm.Txn) {
							sb, _ := bank.SearchTx(tx, settle[st])
							bank.DeleteTx(tx, settle[st])
							bank.InsertTx(tx, settle[st], sb-amt)
							c, _ := bank.SearchTx(tx, to)
							bank.DeleteTx(tx, to)
							bank.InsertTx(tx, to, c+amt)
						})
						crossShard.Add(1)
					}
				}
				transfers.Add(1)
			}
		}(uint64(w + 1))
	}

	// Auditor: one read-only body = one frozen timestamp across every
	// shard. The sum must equal the initial total at every audit, even
	// with cross-shard transfers permanently in flight.
	auditor := sys.RegisterSharded()
	deadline := time.Now().Add(*dur)
	for time.Now().Before(deadline) {
		var total uint64
		var n int
		ok := auditor.ReadOnly(func(tx stm.Txn) {
			total, n = 0, bank.SizeTx(tx)
			bank.VisitTx(tx, 0, ^uint64(0), func(_, val uint64) { total += val })
		})
		if !ok {
			continue
		}
		audits.Add(1)
		if total != wantTotal || n != *accounts+*shards {
			violations.Add(1)
			fmt.Printf("VIOLATION: snapshot total=%d want %d (keys %d)\n", total, wantTotal, n)
		}
	}
	close(stop)
	wg.Wait()
	auditor.Unregister()

	st := sys.Stats()
	fmt.Printf("shardedbank: shards=%d transfers=%d (cross-shard %d) audits=%d violations=%d commits=%d aborts=%d clock=%d\n",
		*shards, transfers.Load(), crossShard.Load(), audits.Load(), violations.Load(),
		st.Commits, st.Aborts, sys.ClockValue())
	if violations.Load() > 0 || audits.Load() == 0 {
		os.Exit(1)
	}
}
