package ds_test

import (
	"bytes"
	"encoding/gob"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/ds/avl"
	"repro/internal/ds/extbst"
	"repro/internal/ds/hashmap"
	"repro/internal/mvstm"
	"repro/internal/stm"
	"repro/internal/workload"
)

type visitorMap interface {
	ds.Map
	ds.Visitor
}

func visitors() map[string]visitorMap {
	return map[string]visitorMap{
		"abtree":  abtree.New(1024),
		"avl":     avl.New(1024),
		"extbst":  extbst.New(1024),
		"hashmap": hashmap.New(256, 1024),
	}
}

func TestExportMatchesContents(t *testing.T) {
	for name, m := range visitors() {
		t.Run(name, func(t *testing.T) {
			sys := mvstm.New(mvstm.Config{LockTableSize: 1 << 12})
			defer sys.Close()
			th := sys.Register()
			defer th.Unregister()
			want := map[uint64]uint64{}
			r := workload.NewRng(uint64(len(name)))
			for i := 0; i < 300; i++ {
				k := r.Next()%500 + 1
				if _, exists := want[k]; !exists {
					want[k] = k * 2
					ds.Insert(th, m, k, k*2)
				}
			}
			pairs, ok := ds.Export(th, m, 1, ^uint64(0))
			if !ok {
				t.Fatal("export failed")
			}
			if len(pairs) != len(want) {
				t.Fatalf("exported %d pairs want %d", len(pairs), len(want))
			}
			ordered := name != "hashmap"
			var prev uint64
			for _, kv := range pairs {
				if want[kv.Key] != kv.Val {
					t.Fatalf("pair %v diverges from model", kv)
				}
				if ordered && kv.Key <= prev {
					t.Fatalf("ordered structure exported out of order: %d after %d", kv.Key, prev)
				}
				if ordered {
					prev = kv.Key
				}
			}
			// The export is serializable as-is.
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(pairs); err != nil {
				t.Fatalf("gob: %v", err)
			}
			var back []ds.KV
			if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
				t.Fatalf("gob decode: %v", err)
			}
			if len(back) != len(pairs) {
				t.Fatal("round trip lost pairs")
			}
		})
	}
}

// TestExportIsAtomicSnapshot exports concurrently with pair-toggling writers
// (one key of each pair always present): every export must contain exactly
// one key per pair — a torn export would show zero or two.
func TestExportIsAtomicSnapshot(t *testing.T) {
	sys := mvstm.New(mvstm.Config{LockTableSize: 1 << 12})
	defer sys.Close()
	m := abtree.New(1024)
	const pairs = 64
	init := sys.Register()
	for i := 0; i < pairs; i++ {
		ds.Insert(init, m, uint64(2*i+2), 1)
	}
	init.Unregister()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			r := workload.NewRng(seed)
			for !stop.Load() {
				p := uint64(r.Intn(pairs))
				even, odd := 2*p+2, 2*p+3
				th.Atomic(func(tx stm.Txn) {
					if m.DeleteTx(tx, even) {
						m.InsertTx(tx, odd, 1)
					} else {
						m.DeleteTx(tx, odd)
						m.InsertTx(tx, even, 1)
					}
				})
			}
		}(uint64(w + 5))
	}
	th := sys.Register()
	for i := 0; i < 100; i++ {
		pairsOut, ok := ds.Export(th, m, 1, ^uint64(0))
		if !ok {
			continue
		}
		if len(pairsOut) != pairs {
			stop.Store(true)
			t.Fatalf("torn export: %d keys want %d", len(pairsOut), pairs)
		}
	}
	stop.Store(true)
	wg.Wait()
	th.Unregister()
}
