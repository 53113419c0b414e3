package bench

import (
	"repro/internal/ds"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/stm"
)

// The four constructors below remain solely because benchmark/ calls them:
// they go when the owed benchmark PR repoints it at internal/registry
// (ROADMAP "Owed before the next perf claim").

// baselineMaxAttempts bounds retries for the TMs without a long-read escape
// hatch; the paper observes them "reach their maximum allowed aborts and
// quit" on range queries under updaters.
const baselineMaxAttempts = 20000

func must[T any](v T, err error) T {
	if err != nil {
		panic("bench: " + err.Error())
	}
	return v
}

// NewTM builds a TM by registry name. lockTable sizes the lock (and, for
// Multiverse, VLT/bloom) tables.
func NewTM(name string, lockTable int) stm.System {
	return must(registry.NewTM(name, registry.Params{LockTable: lockTable, MaxAttempts: baselineMaxAttempts}))
}

// NewShardedTM composes shards instances of the named TM behind one
// internal/shard System. The lock-table budget is split across shards
// (floored at 1<<12) so shard-count sweeps compare at roughly constant
// total table memory; what scales with the shard count is the number of
// independent clocks-of-contention — lock tables, VLTs, announcement
// arrays, background threads — not the bytes.
func NewShardedTM(name string, shards, lockTable int) *shard.System {
	per := max(lockTable/shards, 1<<12)
	backend := must(registry.ShardBackend(name, registry.Params{LockTable: per, MaxAttempts: baselineMaxAttempts}, nil))
	return shard.New(shard.Config{Shards: shards, Backend: backend})
}

// NewShardedDS builds the hash-partitioned counterpart of NewDS over sys,
// dividing the capacity hint across shards.
func NewShardedDS(sys *shard.System, name string, capacity int) ds.Map {
	per := max(capacity/sys.NumShards(), 1024)
	return shard.NewMap(sys, func(int) ds.Map { return NewDS(name, per) })
}

// NewDS builds a data structure by registry name with a key-capacity hint.
func NewDS(name string, capacity int) ds.Map { return must(registry.NewDS(name, capacity)) }
