package ds_test

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/mvstm"
	"repro/internal/stm"
	"repro/internal/wal"
)

// pinZeroAllocs requires every wrapper to allocate nothing once warm: an
// insert that inserts, a delete that deletes, a search, a range and a size.
// sync.Pool drops items at random under the race detector, so the pins run
// race-off only.
func pinZeroAllocs(t *testing.T, th stm.Thread, m ds.Map, prefill uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under -race")
	}
	for k := uint64(1); k <= prefill; k++ {
		if ins, ok := ds.Insert(th, m, k, k); !ins || !ok {
			t.Fatalf("prefill %d: inserted=%v ok=%v", k, ins, ok)
		}
	}
	const runs = 500
	next := prefill
	del := uint64(0)
	ops := []struct {
		name string
		fn   func()
	}{
		{"Insert", func() {
			next++
			if ins, ok := ds.Insert(th, m, next, next); !ins || !ok {
				t.Fatalf("insert %d: inserted=%v ok=%v", next, ins, ok)
			}
		}},
		{"Delete", func() {
			del++
			if d, ok := ds.Delete(th, m, del); !d || !ok {
				t.Fatalf("delete %d: deleted=%v ok=%v", del, d, ok)
			}
		}},
		{"Search", func() {
			if v, found, ok := ds.Search(th, m, next); !found || !ok || v != next {
				t.Fatalf("search %d = (%d, %v, %v)", next, v, found, ok)
			}
		}},
		{"Range", func() {
			if n, sum, ok := ds.Range(th, m, next-9, next); n != 10 || !ok || sum != 10*next-45 {
				t.Fatalf("range [%d, %d] = (%d, %d, %v)", next-9, next, n, sum, ok)
			}
		}},
		{"Size", func() {
			if _, ok := ds.Size(th, m); !ok {
				t.Fatal("size failed")
			}
		}},
	}
	for _, op := range ops {
		if n := testing.AllocsPerRun(runs, op.fn); n != 0 {
			t.Errorf("ds.%s: %v allocs/op, want 0", op.name, n)
		}
	}
}

// TestWrappersAllocFreeMultiverse pins the paper's common case: the five
// wrappers over one Multiverse instance and an (a,b)-tree.
func TestWrappersAllocFreeMultiverse(t *testing.T) {
	sys := mvstm.New(mvstm.Config{LockTableSize: 1 << 12})
	defer sys.Close()
	th := sys.Register()
	defer th.Unregister()
	pinZeroAllocs(t, th, abtree.New(4096), 1024)
}

// TestWrappersAllocFreeWAL pins the durable stack: the same wrappers over a
// 2-shard logging hashmap, through shard routing, the redo log and, for
// Range and Size, the cross-shard snapshot reader.
func TestWrappersAllocFreeWAL(t *testing.T) {
	m, l, err := wal.OpenWith(wal.Options{Dir: t.TempDir(), Shards: 2, Capacity: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	th := l.System().Register()
	defer th.Unregister()
	pinZeroAllocs(t, th, m, 1024)
}
