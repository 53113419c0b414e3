package ds_test

import (
	"sync"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/mvstm"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/stm"
)

// shardedMap builds a Multiverse system of n shards holding one named
// structure per shard.
func shardedMap(t *testing.T, n int, dsName string) (stm.System, ds.Map) {
	t.Helper()
	backend, err := registry.ShardBackend("multiverse", registry.Params{LockTable: 1 << 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := shard.New(shard.Config{Shards: n, Backend: backend})
	return sys, shard.NewMap(sys, func(int) ds.Map {
		m, err := registry.NewDS(dsName, 64)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
}

// TestWrapperInputsSurviveRerun: a wrapper body reruns from the top — here
// after internal/shard's probe, which finishes a single-key range on a
// placeholder and reruns it bound, and escalates a wider range to a snapshot
// rerun — so a result written over an input would answer the rerun's
// question with the probe's answer. Every single-key and two-key range over
// a multi-shard system must see exactly what was inserted.
func TestWrapperInputsSurviveRerun(t *testing.T) {
	for _, dsName := range []string{"hashmap", "abtree"} {
		t.Run(dsName, func(t *testing.T) {
			sys, m := shardedMap(t, 4, dsName)
			defer sys.Close()
			th := sys.Register()
			defer th.Unregister()
			const keys = 200
			for k := uint64(2); k <= keys; k += 2 {
				if ins, ok := ds.Insert(th, m, k, k*10); !ins || !ok {
					t.Fatalf("insert %d: inserted=%v ok=%v", k, ins, ok)
				}
			}
			for k := uint64(1); k <= keys; k++ {
				present := k%2 == 0
				want := 0
				if present {
					want = 1
				}
				if n, sum, ok := ds.Range(th, m, k, k); !ok || n != want || (present && sum != k) {
					t.Fatalf("range[%d,%d] = (%d, %d, %v), want %d key(s)", k, k, n, sum, ok, want)
				}
				if n, sum, ok := ds.Range(th, m, k, k+1); !ok || n != 1 || sum != k+k%2 {
					t.Fatalf("range[%d,%d] = (%d, %d, %v), want (1, %d)", k, k+1, n, sum, ok, k+k%2)
				}
				if v, found, ok := ds.Search(th, m, k); !ok || found != present || (present && v != k*10) {
					t.Fatalf("search %d = (%d, %v, %v), present=%v", k, v, found, ok, present)
				}
			}
			if n, ok := ds.Size(th, m); !ok || n != keys/2 {
				t.Fatalf("size = (%d, %v), want %d", n, ok, keys/2)
			}
		})
	}
}

// TestWrappersConcurrentDisjointKeys: goroutines drive the wrappers on
// disjoint blocks of keys, so every result is known exactly; a wrapper that
// read its result after handing its op back to the pool would, sooner or
// later, report another goroutine's answer (and, under -race, a race).
func TestWrappersConcurrentDisjointKeys(t *testing.T) {
	const (
		workers = 4
		block   = 16
		rounds  = 150
	)
	mv := mvstm.New(mvstm.Config{LockTableSize: 1 << 12})
	defer mv.Close()
	sharded, sm := shardedMap(t, 2, "hashmap")
	defer sharded.Close()
	setups := []struct {
		name string
		sys  stm.System
		m    ds.Map
	}{
		{"multiverse/abtree", mv, abtree.New(1024)},
		{"sharded/hashmap", sharded, sm},
	}
	for _, s := range setups {
		t.Run(s.name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(lo uint64) {
					defer wg.Done()
					th := s.sys.Register()
					defer th.Unregister()
					hi := lo + block - 1
					for r := 0; r < rounds; r++ {
						for k := lo; k <= hi; k++ {
							val := k<<8 | uint64(r)
							if ins, ok := ds.Insert(th, s.m, k, val); !ins || !ok {
								t.Errorf("insert %d: inserted=%v ok=%v", k, ins, ok)
								return
							}
							if ins, ok := ds.Insert(th, s.m, k, val); ins || !ok {
								t.Errorf("second insert %d: inserted=%v ok=%v", k, ins, ok)
								return
							}
							if v, found, ok := ds.Search(th, s.m, k); !found || !ok || v != val {
								t.Errorf("search %d = (%d, %v, %v), want %d", k, v, found, ok, val)
								return
							}
						}
						// The block is full: its range is exact, and so is
						// each key's own.
						if n, sum, ok := ds.Range(th, s.m, lo, hi); !ok || n != block || sum != block*(lo+hi)/2 {
							t.Errorf("range[%d,%d] = (%d, %d, %v)", lo, hi, n, sum, ok)
							return
						}
						for k := lo; k <= hi; k++ {
							if d, ok := ds.Delete(th, s.m, k); !d || !ok {
								t.Errorf("delete %d: deleted=%v ok=%v", k, d, ok)
								return
							}
							if d, ok := ds.Delete(th, s.m, k); d || !ok {
								t.Errorf("second delete %d: deleted=%v ok=%v", k, d, ok)
								return
							}
						}
						if n, sum, ok := ds.Range(th, s.m, lo, hi); !ok || n != 0 || sum != 0 {
							t.Errorf("emptied range[%d,%d] = (%d, %d, %v)", lo, hi, n, sum, ok)
							return
						}
					}
				}(uint64(w*block + 1))
			}
			wg.Wait()
			th := s.sys.Register()
			defer th.Unregister()
			if n, ok := ds.Size(th, s.m); !ok || n != 0 {
				t.Fatalf("size after every worker emptied its block = (%d, %v)", n, ok)
			}
		})
	}
}
