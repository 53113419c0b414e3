package shard_test

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/hashmap"
	"repro/internal/mvstm"
	"repro/internal/shard"
	"repro/internal/stm"
)

// BenchmarkPointOp measures the per-op cost of the routing machinery: the
// sharded wrapper must stay within a small constant of the raw TM for point
// operations ("point ops route to a single shard and cost nothing extra" is
// the design goal; the probe run and its bind unwind are the price).
func BenchmarkPointOp(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		sys := mvstm.New(mvstm.Config{LockTableSize: 1 << 16})
		defer sys.Close()
		m := hashmap.New(1<<12, 1<<14)
		th := sys.Register()
		defer th.Unregister()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i)%1024 + 1
			if ins, _ := ds.Insert(th, m, k, k); !ins {
				ds.Delete(th, m, k)
			}
		}
	})
	for _, shards := range []int{1, 4} {
		b.Run(map[int]string{1: "sharded1", 4: "sharded4"}[shards], func(b *testing.B) {
			sys := shard.New(shard.Config{Shards: shards, Backend: backend(b, "multiverse", 1<<16/shards)})
			defer sys.Close()
			m := shard.NewMap(sys, func(int) ds.Map { return hashmap.New(1<<12/shards, 1<<14/shards) })
			th := sys.RegisterSharded()
			defer th.Unregister()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(i)%1024 + 1
				if ins, _ := ds.Insert(th, m, k, k); !ins {
					ds.Delete(th, m, k)
				}
			}
		})
	}
	b.Run("sharded4-crossread", func(b *testing.B) {
		sys := shard.New(shard.Config{Shards: 4, Backend: backend(b, "multiverse", 1<<14)})
		defer sys.Close()
		m := shard.NewMap(sys, func(int) ds.Map { return hashmap.New(1<<10, 1<<12) })
		th := sys.RegisterSharded()
		defer th.Unregister()
		for k := uint64(1); k <= 1024; k++ {
			ds.Insert(th, m, k, k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := ds.Size(th, m); !ok {
				b.Fatal("size starved")
			}
		}
	})
	var _ stm.Txn // keep stm import if cases change
}
