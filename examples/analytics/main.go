// Analytics: large range queries racing a stream of point updates.
//
// An "inventory" (a,b)-tree receives constant inserts/deletes from writer
// threads while analytics threads scan 10% of the key space in a single
// atomic range query — the paper's motivating workload. On Multiverse the
// scans commit via the versioned path (watch versioned-commits and the TM
// mode switch to U); on unversioned TMs they starve.
//
//	go run ./examples/analytics
//	go run ./examples/analytics -tm dctl   # compare
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/mvstm"
	"repro/internal/registry"
	"repro/internal/workload"
)

func main() {
	tm := flag.String("tm", "multiverse", "TM to run on")
	keys := flag.Int("keys", 20000, "prefill size")
	writers := flag.Int("writers", 3, "update threads")
	dur := flag.Duration("dur", 2*time.Second, "run duration")
	flag.Parse()

	// 20000 attempts: where the TMs without a long-read path give up, as in
	// the paper's harness.
	sys, err := registry.NewTM(*tm, registry.Params{LockTable: 1 << 16, MaxAttempts: 20000})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer sys.Close()
	inv := abtree.New(*keys * 2)
	keyRange := uint64(*keys) * 2

	th := sys.Register()
	r := workload.NewRng(1)
	for n := 0; n < *keys; {
		if ins, ok := ds.Insert(th, inv, r.Next()%keyRange+1, 1); ok && ins {
			n++
		}
	}
	th.Unregister()

	var stop atomic.Bool
	var scans, scanned, updates atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			wth := sys.Register()
			defer wth.Unregister()
			rr := workload.NewRng(seed)
			for !stop.Load() {
				k := rr.Next()%keyRange + 1
				if rr.Intn(2) == 0 {
					ds.Insert(wth, inv, k, k)
				} else {
					ds.Delete(wth, inv, k)
				}
				updates.Add(1)
			}
		}(uint64(w + 7))
	}
	wg.Add(1)
	go func() { // analytics thread
		defer wg.Done()
		ath := sys.Register()
		defer ath.Unregister()
		rr := workload.NewRng(99)
		span := keyRange / 10
		for !stop.Load() {
			lo := rr.Next() % (keyRange - span)
			count, _, ok := ds.Range(ath, inv, lo, lo+span)
			if ok {
				scans.Add(1)
				scanned.Add(uint64(count))
			}
		}
	}()

	time.Sleep(*dur)
	stop.Store(true)
	wg.Wait()

	st := sys.Stats()
	fmt.Printf("tm=%s updates=%d scans=%d keys-scanned=%d\n", *tm, updates.Load(), scans.Load(), scanned.Load())
	fmt.Printf("commits=%d aborts=%d starved=%d versioned-commits=%d addr-versioned=%d unversionings=%d\n",
		st.Commits, st.Aborts, st.Starved, st.VersionedCommits, st.AddrVersioned, st.Unversionings)
	if mv, ok := sys.(*mvstm.System); ok {
		fmt.Printf("final TM mode: %v, mode switches: %d\n", mv.Mode(), st.ModeSwitches)
	}
}
