package registry

import (
	"strings"
	"testing"

	"repro/internal/ds"
	"repro/internal/shard"
	"repro/internal/stm"
)

// TestDurable: the capability is observed, and comes out as the set the WAL,
// server and replica were hand-listing before — every Multiverse variant,
// DCTL and TL2; never NOrec, TinySTM or an unknown name.
func TestDurable(t *testing.T) {
	for _, name := range TMNames() {
		want := strings.HasPrefix(name, "multiverse") || name == "dctl" || name == "tl2"
		if got := Durable(name); got != want {
			t.Errorf("Durable(%q) = %v want %v", name, got, want)
		}
	}
	if Durable("no-such-tm") {
		t.Error("an unknown TM is durable")
	}
}

func TestUnknownNames(t *testing.T) {
	if _, err := NewTM("no-such-tm", Params{}); err == nil || !strings.Contains(err.Error(), "multiverse-eager") {
		t.Errorf("NewTM error %v should list the known names", err)
	}
	if _, err := ShardBackend("no-such-tm", Params{}, nil); err == nil {
		t.Error("ShardBackend accepted an unknown TM")
	}
	if _, err := NewDS("no-such-ds", 16); err == nil {
		t.Error("NewDS accepted an unknown structure")
	}
}

type countObserver struct{ commits int }

func (c *countObserver) ObserveCommit(uint64, uint64, []stm.RedoRec) { c.commits++ }

// TestShardBackendWiring: each shard's instance commits against the shared
// clock and reports to its own observer.
func TestShardBackendWiring(t *testing.T) {
	for _, name := range []string{"multiverse", "dctl", "tl2"} {
		observers := []*countObserver{{}, {}}
		backend, err := ShardBackend(name, Params{LockTable: 1 << 10},
			func(i int) stm.CommitObserver { return observers[i] })
		if err != nil {
			t.Fatal(err)
		}
		sys := shard.New(shard.Config{Shards: 2, Backend: backend})
		m := shard.NewMap(sys, func(int) ds.Map {
			d, err := NewDS("hashmap", 64)
			if err != nil {
				t.Fatal(err)
			}
			return d
		})
		th := sys.Register()
		for k := uint64(1); k <= 32; k++ {
			th.Atomic(func(tx stm.Txn) {
				m.InsertTx(tx, k, k)
				stm.LogRedo(tx, stm.RedoRec{Op: stm.RedoInsert, Key: k, Val: k})
			})
		}
		if n, ok := ds.Size(th, m); !ok || n != 32 {
			t.Errorf("%s: cross-shard size %d ok=%v want 32 (shared clock snapshot)", name, n, ok)
		}
		th.Unregister()
		sys.Close()
		if a, b := observers[0].commits, observers[1].commits; a == 0 || b == 0 || a+b != 32 {
			t.Errorf("%s: per-shard observed commits %d+%d want 32 split over both", name, a, b)
		}
	}
}
