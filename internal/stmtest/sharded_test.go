package stmtest

import (
	"fmt"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/ds/hashmap"
	"repro/internal/histcheck"
	"repro/internal/registry"
	"repro/internal/shard"
)

// shardedBackends are the TM pairings the sharded conformance matrix runs
// over: the production pairing (Multiverse, whose versioned read path is
// what lets cross-shard snapshot scans converge under churn) at both eager
// and paper-default thresholds, plus TL2 as the non-versioned baseline —
// its cross-shard queries may starve (discarded ops), never lie.
var shardedBackends = []string{"multiverse-eager", "multiverse", "tl2"}

func shardBackend(name string) shard.Backend {
	b, err := registry.ShardBackend(name, registry.Params{LockTable: SmallTables}, nil)
	if err != nil {
		panic(err)
	}
	return b
}

// newShardedMap pairs a sharded system with a backing structure per shard.
func newShardedMap(sys *shard.System, dsName string) *shard.Map {
	return shard.NewMap(sys, func(int) ds.Map {
		switch dsName {
		case "abtree":
			return abtree.New(4096)
		default:
			return hashmap.New(256, 4096)
		}
	})
}

// TestShardedHistoryLinearizable is the sharded arm of the history-checked
// conformance matrix: shard.Map over 1/2/4/8 TM instances runs the recorded
// torture workload and the full history — point ops routed to single
// shards, Range/Size answered by frozen-timestamp snapshot scans — must be
// linearizable. The per-key decomposition of histcheck.CheckPartitioned
// matches the sharding boundary exactly (a key's sub-history lives entirely
// on its shard), so the checker scales over sharded histories for free; the
// conservative cross-key pass is what validates the 2PC-free cross-shard
// queries against the per-key timelines.
//
// Shard count 1 rides along so CI's sharded smoke can assert "1 and 4
// shards both pass conformance" with the same code path (a 1-shard system
// binds everything natively and never freezes snapshots).
func TestShardedHistoryLinearizable(t *testing.T) {
	const threads = 3
	opsPerThread := 4000 // cross ops cost N pinned scans; budget below the flat matrix
	if raceEnabled {
		opsPerThread = 300
	}
	profiles := histcheck.Profiles()
	structures := []string{"hashmap", "abtree"}
	combo := 0
	for _, tm := range shardedBackends {
		for _, shards := range []int{1, 2, 4, 8} {
			p := profiles[combo%len(profiles)]
			dsName := structures[combo%len(structures)]
			seed := uint64(combo*6271 + 11)
			combo++
			t.Run(fmt.Sprintf("%s/%dshards/%s/%s", tm, shards, dsName, p.Name), func(t *testing.T) {
				t.Parallel()
				sys := shard.New(shard.Config{Shards: shards, Backend: shardBackend(tm)})
				defer sys.Close()
				m := newShardedMap(sys, dsName)
				h := histcheck.RunHistory(sys, m, p, threads, opsPerThread, seed)
				if h.Dropped() != 0 {
					t.Fatalf("recorder dropped %d ops", h.Dropped())
				}
				ops := h.Ops()
				res := histcheck.CheckPartitioned(ops, 0)
				if res.LimitHit {
					t.Fatalf("checker inconclusive on %d ops: %s", len(ops), res.Reason)
				}
				if !res.Ok {
					t.Fatalf("non-linearizable sharded history (%d ops, %d shards, seed %d): %s",
						len(ops), shards, seed, res.Reason)
				}
			})
		}
	}
}

// TestShardedSnapshotQueriesCommit asserts the progress half of the design
// on the production pairing: under the range-heavy profile, cross-shard
// snapshot queries over Multiverse shards must actually commit (versioning
// makes re-freezes converge), not starve their way to a vacuous pass.
func TestShardedSnapshotQueriesCommit(t *testing.T) {
	p, ok := histcheck.ProfileByName("range-heavy")
	if !ok {
		t.Fatal("range-heavy profile missing")
	}
	sys := shard.New(shard.Config{Shards: 4, Backend: shardBackend("multiverse-eager")})
	defer sys.Close()
	m := newShardedMap(sys, "abtree")
	ops := 2000
	if raceEnabled {
		ops = 300
	}
	h := histcheck.RunHistory(sys, m, p, 3, ops, 97)
	var ranges int
	for _, op := range h.Ops() {
		if op.Kind == histcheck.Range || op.Kind == histcheck.Size {
			ranges++
		}
	}
	if ranges == 0 {
		t.Fatal("no range/size queries committed (all starved)")
	}
	if res := histcheck.CheckPartitioned(h.Ops(), 0); !res.Ok {
		t.Fatalf("history not linearizable: %s", res.Reason)
	}
}
