package shard_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/ds/dstest"
	"repro/internal/ds/hashmap"
	"repro/internal/mvstm"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/workload"
)

// Interface conformance: the sharded system slots into every harness that
// drives stm.System + ds.Map, and all snapshot-capable TM threads satisfy
// stm.SnapshotThread.
var (
	_ stm.System         = (*shard.System)(nil)
	_ stm.Thread         = (*shard.Thread)(nil)
	_ ds.Map             = (*shard.Map)(nil)
	_ ds.Visitor         = (*shard.Map)(nil)
	_ stm.SnapshotThread = (*mvstm.Thread)(nil)
)

// smallTable is a lock table small enough that short tests reach lock
// collisions.
const smallTable = 1 << 10

// backend builds the named TM per shard. Most tests run "multiverse-eager":
// minimal versioned-path thresholds, so they reach the versioned machinery.
func backend(t testing.TB, name string, lockTable int) shard.Backend {
	t.Helper()
	b, err := registry.ShardBackend(name, registry.Params{LockTable: lockTable}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newMV(t testing.TB, shards int) (*shard.System, *shard.Map) {
	t.Helper()
	sys := shard.New(shard.Config{Shards: shards, Backend: backend(t, "multiverse-eager", smallTable)})
	t.Cleanup(sys.Close)
	return sys, shard.NewMap(sys, func(int) ds.Map { return hashmap.New(256, 4096) })
}

// keysOnShard returns n distinct keys ≥ from that route to shard s.
func keysOnShard(sys *shard.System, s int, n int, from uint64) []uint64 {
	keys := make([]uint64, 0, n)
	for k := from; len(keys) < n; k++ {
		if sys.ShardOf(k) == s {
			keys = append(keys, k)
		}
	}
	return keys
}

// readers are the two entry points into the one snapshot loop: a ReadOnly
// body that escalates (or, on one shard, runs natively), and Snapshot, which
// starts frozen. Every snapshot-consistency test runs through both.
var readers = []struct {
	name string
	run  func(*shard.Thread, func(stm.Txn)) bool
}{
	{"ReadOnly", (*shard.Thread).ReadOnly},
	{"Snapshot", func(th *shard.Thread, fn func(stm.Txn)) bool {
		_, ok := th.Snapshot(fn)
		return ok
	}},
}

func TestShardRoutingCoversAllShards(t *testing.T) {
	sys, _ := newMV(t, 8)
	seen := make(map[int]int)
	for k := uint64(1); k <= 1024; k++ {
		s := sys.ShardOf(k)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d) = %d out of range", k, s)
		}
		seen[s]++
	}
	for s := 0; s < 8; s++ {
		if seen[s] < 64 {
			t.Fatalf("shard %d got only %d of 1024 keys (bad partitioning)", s, seen[s])
		}
	}
}

// TestPointOpsBindToKeyShard checks that point operations commit on exactly
// the key's shard (the "point ops cost nothing extra" routing invariant).
func TestPointOpsBindToKeyShard(t *testing.T) {
	sys, m := newMV(t, 4)
	th := sys.RegisterSharded()
	defer th.Unregister()
	for k := uint64(1); k <= 64; k++ {
		before := sys.ShardStats()
		if ins, ok := ds.Insert(th, m, k, k*10); !ok || !ins {
			t.Fatalf("insert %d failed", k)
		}
		after := sys.ShardStats()
		want := sys.ShardOf(k)
		for s := range after {
			delta := after[s].Commits - before[s].Commits
			if s == want && delta == 0 {
				t.Fatalf("key %d: no commit on its shard %d", k, want)
			}
			if s != want && delta != 0 {
				t.Fatalf("key %d: unexpected commit on shard %d (want only %d)", k, s, want)
			}
		}
	}
}

// TestMultiOpSingleShardTransaction checks that several operations on one
// key (and on co-located keys) compose in one atomic transaction.
func TestMultiOpSingleShardTransaction(t *testing.T) {
	sys, m := newMV(t, 4)
	th := sys.RegisterSharded()
	defer th.Unregister()
	keys := keysOnShard(sys, 2, 3, 1)
	ok := th.Atomic(func(tx stm.Txn) {
		for _, k := range keys {
			if !m.InsertTx(tx, k, k) {
				m.DeleteTx(tx, k)
				m.InsertTx(tx, k, k+1)
			}
		}
	})
	if !ok {
		t.Fatal("co-located multi-key update did not commit")
	}
	for _, k := range keys {
		if v, found, _ := ds.Search(th, m, k); !found || v != k {
			t.Fatalf("key %d: got (%d,%v) want (%d,true)", k, v, found, k)
		}
	}
}

// TestCrossShardUpdatePanics checks that an update transaction spanning two
// shards fails loudly instead of silently losing atomicity.
func TestCrossShardUpdatePanics(t *testing.T) {
	sys, m := newMV(t, 4)
	th := sys.RegisterSharded()
	defer th.Unregister()
	kA := keysOnShard(sys, 0, 1, 1)[0]
	kB := keysOnShard(sys, 3, 1, 1)[0]
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-shard update transaction did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "cross-shard update") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	th.Atomic(func(tx stm.Txn) {
		m.InsertTx(tx, kA, 1)
		m.InsertTx(tx, kB, 2)
	})
}

// TestCrossShardReadOnlyEscalates checks that a read-only body touching two
// shards escalates to the snapshot view and returns consistent values.
func TestCrossShardReadOnlyEscalates(t *testing.T) {
	sys, m := newMV(t, 4)
	th := sys.RegisterSharded()
	defer th.Unregister()
	kA := keysOnShard(sys, 0, 1, 1)[0]
	kB := keysOnShard(sys, 3, 1, 1)[0]
	ds.Insert(th, m, kA, 11)
	ds.Insert(th, m, kB, 22)
	var vA, vB uint64
	var fA, fB bool
	ok := th.ReadOnly(func(tx stm.Txn) {
		vA, fA = m.SearchTx(tx, kA) // binds to shard 0
		vB, fB = m.SearchTx(tx, kB) // foreign shard: escalates to snapshot
	})
	if !ok || !fA || !fB || vA != 11 || vB != 22 {
		t.Fatalf("cross-shard reads: ok=%v got (%d,%v) (%d,%v)", ok, vA, fA, vB, fB)
	}
}

// TestConformanceModelAndDifferential runs the shared data-structure
// harness over the sharded map at several shard counts and backends: the
// wrapper must be indistinguishable from a plain ds.Map.
func TestConformanceModelAndDifferential(t *testing.T) {
	backends := []struct {
		name string
		bk   shard.Backend
	}{
		{"multiverse", backend(t, "multiverse-eager", smallTable)},
		{"tl2", backend(t, "tl2", smallTable)},
		{"dctl", backend(t, "dctl", smallTable)},
	}
	for _, b := range backends {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, dsn := range []string{"hashmap", "abtree"} {
				t.Run(fmt.Sprintf("%s/%dshards/%s", b.name, shards, dsn), func(t *testing.T) {
					sys := shard.New(shard.Config{Shards: shards, Backend: b.bk})
					defer sys.Close()
					newMap := func(int) ds.Map {
						if dsn == "abtree" {
							return abtree.New(4096)
						}
						return hashmap.New(256, 4096)
					}
					dstest.Model(t, sys, shard.NewMap(sys, newMap), 1500, 128, uint64(31+shards))
					// Fresh map: Differential tracks its own model from empty.
					dstest.Differential(t, sys, shard.NewMap(sys, newMap), 600, 64, uint64(77+shards))
				})
			}
		}
	}
}

// TestSameSnapshotRangeVsSize is the deterministic cross-shard consistency
// check: under concurrent churn, a full-range RangeTx and a SizeTx inside
// one read-only body share one frozen timestamp and must agree exactly.
func TestSameSnapshotRangeVsSize(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			for _, rd := range readers {
				t.Run(rd.name, func(t *testing.T) {
					sys, m := newMV(t, shards)
					const keyRange = 96
					const togglesPerWorker = 1500
					const workers = 3
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(seed uint64) {
							defer wg.Done()
							th := sys.RegisterSharded()
							defer th.Unregister()
							r := workload.NewRng(seed)
							for i := 0; i < togglesPerWorker; i++ {
								k := r.Next()%keyRange + 1
								if ins, ok := ds.Insert(th, m, k, k); ok && !ins {
									ds.Delete(th, m, k)
								}
							}
						}(uint64(w + 1))
					}
					audits := 0
					th := sys.RegisterSharded()
					done := make(chan struct{})
					go func() { wg.Wait(); close(done) }()
					for {
						select {
						case <-done:
							th.Unregister()
							if audits == 0 {
								t.Fatal("no audits completed")
							}
							return
						default:
						}
						var cnt, n int
						var sum uint64
						if ok := rd.run(th, func(tx stm.Txn) {
							cnt, sum = m.RangeTx(tx, 0, ^uint64(0))
							n = m.SizeTx(tx)
						}); !ok {
							continue
						}
						audits++
						if cnt != n {
							t.Fatalf("audit %d: full-range count %d != size %d (snapshot torn across shards)", audits, cnt, n)
						}
						if sum == 0 && cnt > 0 {
							t.Fatalf("audit %d: count %d with zero key sum", audits, cnt)
						}
					}
				})
			}
		})
	}
}

// TestColocatedPairToggle is dstest.Concurrent adapted to sharding: pairs
// are chosen co-located (both keys on one shard) so toggles stay
// single-shard updates, while the full-range checker exercises cross-shard
// snapshots; every snapshot must see exactly one key of each pair.
func TestColocatedPairToggle(t *testing.T) {
	const pairs = 64
	sys, m := newMV(t, 4)
	// pairKeys[i] = (even, odd) both routed to the same shard.
	type pair struct{ even, odd uint64 }
	var ps []pair
	for k := uint64(2); len(ps) < pairs; k++ {
		if sys.ShardOf(k) == sys.ShardOf(k+1000000) {
			ps = append(ps, pair{k, k + 1000000})
		}
	}
	init := sys.RegisterSharded()
	for _, p := range ps {
		if ins, ok := ds.Insert(init, m, p.even, 1); !ok || !ins {
			t.Fatal("prefill failed")
		}
	}
	init.Unregister()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := sys.RegisterSharded()
			defer th.Unregister()
			r := workload.NewRng(seed)
			for i := 0; i < 2000; i++ {
				p := ps[r.Intn(pairs)]
				th.Atomic(func(tx stm.Txn) {
					if m.DeleteTx(tx, p.even) {
						m.InsertTx(tx, p.odd, 1)
					} else {
						m.DeleteTx(tx, p.odd)
						m.InsertTx(tx, p.even, 1)
					}
				})
			}
		}(uint64(w + 5))
	}
	go func() { wg.Wait(); close(stop) }()
	th := sys.RegisterSharded()
	defer th.Unregister()
	for {
		select {
		case <-stop:
			if n, ok := ds.Size(th, m); !ok || n != pairs {
				t.Fatalf("final size %d want %d", n, pairs)
			}
			return
		default:
		}
		if n, ok := ds.Size(th, m); ok && n != pairs {
			t.Fatalf("snapshot size %d want %d (pair toggle torn)", n, pairs)
		}
	}
}

// TestExportSnapshot checks a whole-map export over the sharded map (what
// ds.Export does, through either reader): the exported pairs are a
// consistent snapshot, duplicate-free, and complete.
func TestExportSnapshot(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			for _, rd := range readers {
				t.Run(rd.name, func(t *testing.T) {
					sys, m := newMV(t, shards)
					th := sys.RegisterSharded()
					defer th.Unregister()
					want := map[uint64]uint64{}
					for k := uint64(1); k <= 200; k++ {
						ds.Insert(th, m, k, k*3)
						want[k] = k * 3
					}
					var pairs []ds.KV
					if !rd.run(th, func(tx stm.Txn) {
						pairs = pairs[:0] // the body may re-run
						m.VisitTx(tx, 0, ^uint64(0), func(k, v uint64) { pairs = append(pairs, ds.KV{Key: k, Val: v}) })
					}) {
						t.Fatal("export failed")
					}
					if len(pairs) != len(want) {
						t.Fatalf("exported %d pairs want %d", len(pairs), len(want))
					}
					sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
					for i := 1; i < len(pairs); i++ {
						if pairs[i].Key == pairs[i-1].Key {
							t.Fatalf("duplicate key %d in export", pairs[i].Key)
						}
					}
					for _, p := range pairs {
						if want[p.Key] != p.Val {
							t.Fatalf("export key %d val %d want %d", p.Key, p.Val, want[p.Key])
						}
					}
				})
			}
		})
	}
}

// TestSnapshotServesPast checks the versioned mechanism end to end at the
// shard API: a frozen cross-shard query observes the pre-freeze state even
// if updates land mid-scan. We simulate the race deterministically by
// performing the update between two reads that share the body's frozen ts:
// the second read must still see the pre-update value once the address is
// versioned, or the body must retry onto a consistent newer snapshot —
// either way the two reads inside one body agree with one atomic instant.
func TestSnapshotServesPast(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			for _, rd := range readers {
				t.Run(rd.name, func(t *testing.T) {
					sys, m := newMV(t, shards)
					th := sys.RegisterSharded()
					defer th.Unregister()
					upd := sys.RegisterSharded()
					defer upd.Unregister()
					kA := keysOnShard(sys, 0, 1, 1)[0]
					kB := keysOnShard(sys, shards-1, 1, kA+1)[0]
					ds.Insert(th, m, kA, 1)
					ds.Insert(th, m, kB, 1)
					for round := 0; round < 50; round++ {
						injected := false
						var vA, vB uint64
						ok := rd.run(th, func(tx stm.Txn) {
							vA, _ = m.SearchTx(tx, kA)
							m.SizeTx(tx) // force snapshot mode
							if !injected {
								injected = true
								// A concurrent-looking update between the body's reads.
								upd.Atomic(func(utx stm.Txn) {
									m.DeleteTx(utx, kA)
									m.InsertTx(utx, kA, 100+uint64(round))
								})
							}
							vA2, _ := m.SearchTx(tx, kA)
							if vA2 != vA {
								t.Fatalf("round %d: two reads of key %d in one snapshot body disagree: %d then %d", round, kA, vA, vA2)
							}
							vB, _ = m.SearchTx(tx, kB)
						})
						if !ok {
							t.Fatalf("round %d: snapshot body starved", round)
						}
						if vB != 1 {
							t.Fatalf("round %d: key %d = %d want 1", round, kB, vB)
						}
						// Reset kA for the next round.
						upd.Atomic(func(utx stm.Txn) {
							m.DeleteTx(utx, kA)
							m.InsertTx(utx, kA, 1)
						})
					}
				})
			}
		})
	}
}

// TestSnapshotIsStateAtTs scripts, from inside the visit callback, what only
// Snapshot promises: the image is the state at the returned ts, not at
// return. A key committed before the call is in it; a key a second thread
// commits into the shard whose pairs are being delivered (its pinned scan is
// over) is not, although that commit finished before Snapshot returned; and
// ts lies in (clock before the call, clock after it].
func TestSnapshotIsStateAtTs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			sys, m := newMV(t, shards)
			th := sys.RegisterSharded()
			defer th.Unregister()
			upd := sys.RegisterSharded()
			defer upd.Unregister()
			want := map[uint64]uint64{}
			for s := 0; s < shards; s++ {
				for _, k := range keysOnShard(sys, s, 3, 1) {
					ds.Insert(th, m, k, k*7)
					want[k] = k * 7
				}
			}
			const late = 1 << 20 // the key committed mid-delivery (keysOnShard scans up from it)
			var lateKey uint64
			image := map[uint64]uint64{}
			runs := 0
			before, freezes := sys.ClockValue(), sys.Freezes()
			ts, ok := th.Snapshot(func(tx stm.Txn) {
				runs++
				clear(image)
				m.VisitTx(tx, 0, ^uint64(0), func(k, v uint64) {
					image[k] = v
					if lateKey == 0 {
						lateKey = keysOnShard(sys, sys.ShardOf(k), 1, late)[0]
						if ins, ok := ds.Insert(upd, m, lateKey, 1); !ok || !ins {
							t.Errorf("mid-delivery insert of key %d: inserted=%v ok=%v", lateKey, ins, ok)
						}
					}
				})
			})
			after := sys.ClockValue()
			if !ok {
				t.Fatal("Snapshot starved on an otherwise idle system")
			}
			if ts <= before || ts > after {
				t.Fatalf("ts %d outside (clock before %d, clock after %d]", ts, before, after)
			}
			if runs != 1 || sys.Freezes()-freezes != 1 {
				t.Fatalf("body ran %d times over %d freezes; a write behind the scan must not disturb it", runs, sys.Freezes()-freezes)
			}
			if _, in := image[lateKey]; in {
				t.Fatalf("image at ts %d holds key %d, committed after the freeze", ts, lateKey)
			}
			if v, found, _ := ds.Search(th, m, lateKey); !found || v != 1 {
				t.Fatalf("key %d not committed by the time Snapshot returned: (%d,%v)", lateKey, v, found)
			}
			if len(image) != len(want) {
				t.Fatalf("image has %d pairs want %d", len(image), len(want))
			}
			for k, v := range want {
				if image[k] != v {
					t.Fatalf("image[%d] = %d want %d", k, image[k], v)
				}
			}
		})
	}
}

// TestSnapshotRefreezeDiscardsAttempt: a commit into a shard the scan has
// not reached yet, after the freeze, makes that shard unable to serve the
// frozen ts (an in-place write keeps no older value), so Snapshot re-freezes
// and reruns the body. The second thread also deletes a key the abandoned
// attempt had already delivered: the returned image is the state at the
// second ts — without that key, with the new one, nothing twice.
func TestSnapshotRefreezeDiscardsAttempt(t *testing.T) {
	for _, bk := range []string{"multiverse-eager", "tl2"} {
		t.Run(bk, func(t *testing.T) {
			sys := shard.New(shard.Config{Shards: 2, Backend: backend(t, bk, smallTable)})
			defer sys.Close()
			m := shard.NewMap(sys, func(int) ds.Map { return hashmap.New(256, 4096) })
			th := sys.RegisterSharded()
			defer th.Unregister()
			upd := sys.RegisterSharded()
			defer upd.Unregister()
			first := keysOnShard(sys, 0, 3, 1)  // delivered by the abandoned attempt
			second := keysOnShard(sys, 1, 3, 1) // not yet scanned when the writes land
			for _, k := range append(first, second...) {
				ds.Insert(th, m, k, k)
			}
			gone, added := first[0], keysOnShard(sys, 1, 1, 1<<20)[0]
			var pairs []ds.KV
			runs := 0
			freezes := sys.Freezes()
			ts, ok := th.Snapshot(func(tx stm.Txn) {
				runs++
				pairs = pairs[:0]
				m.VisitTx(tx, 0, ^uint64(0), func(k, v uint64) {
					pairs = append(pairs, ds.KV{Key: k, Val: v})
					if runs == 1 && len(pairs) == 1 { // shard 0 is being delivered
						if del, ok := ds.Delete(upd, m, gone); !ok || !del {
							t.Errorf("delete of key %d: deleted=%v ok=%v", gone, del, ok)
						}
						if ins, ok := ds.Insert(upd, m, added, 9); !ok || !ins {
							t.Errorf("insert of key %d: inserted=%v ok=%v", added, ins, ok)
						}
					}
				})
			})
			if !ok {
				t.Fatal("Snapshot gave up although the second attempt ran undisturbed")
			}
			if runs != 2 || sys.Freezes()-freezes != 2 {
				t.Fatalf("body ran %d times over %d freezes, want 2 and 2 (ts %d)", runs, sys.Freezes()-freezes, ts)
			}
			got := map[uint64]uint64{}
			for _, p := range pairs {
				if _, dup := got[p.Key]; dup {
					t.Fatalf("key %d delivered twice", p.Key)
				}
				got[p.Key] = p.Val
			}
			if _, in := got[gone]; in {
				t.Fatalf("image holds key %d: a pair of the abandoned attempt, deleted before the second freeze", gone)
			}
			if got[added] != 9 || len(got) != len(first)+len(second) {
				t.Fatalf("image %v: want the prefill minus key %d plus %d=9", got, gone, added)
			}
		})
	}
}

// TestRawWordAccessPanics: a bare stm.Word belongs to no shard, so Read and
// Write on a shard transaction refuse loudly, and the Thread stays usable.
func TestRawWordAccessPanics(t *testing.T) {
	sys, m := newMV(t, 2)
	th := sys.RegisterSharded()
	defer th.Unregister()
	var w stm.Word
	for name, body := range map[string]func(){
		"Read":  func() { th.ReadOnly(func(tx stm.Txn) { tx.Read(&w) }) },
		"Write": func() { th.Atomic(func(tx stm.Txn) { tx.Write(&w, 1) }) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "raw word access outside a shard.Map") {
					t.Fatalf("%s: panic %q lacks the raw-word message", name, msg)
				}
			}()
			body()
			t.Fatalf("%s of a raw word did not panic", name)
		}()
	}
	if ins, ok := ds.Insert(th, m, 1, 1); !ok || !ins {
		t.Fatalf("thread unusable after the panics: inserted=%v ok=%v", ins, ok)
	}
}

// TestTL2BackendQuiescentCrossReads: cross-shard queries over non-versioned
// backends work while the system is quiescent (and starve, rather than
// return wrong answers, under churn — covered by conformance above).
func TestTL2BackendQuiescentCrossReads(t *testing.T) {
	sys := shard.New(shard.Config{Shards: 4, Backend: backend(t, "tl2", smallTable)})
	defer sys.Close()
	m := shard.NewMap(sys, func(int) ds.Map { return hashmap.New(256, 1024) })
	th := sys.RegisterSharded()
	defer th.Unregister()
	for k := uint64(1); k <= 100; k++ {
		ds.Insert(th, m, k, k)
	}
	n, ok := ds.Size(th, m)
	if !ok || n != 100 {
		t.Fatalf("size = %d, ok=%v; want 100", n, ok)
	}
	cnt, sum, ok := ds.Range(th, m, 1, 50)
	if !ok || cnt != 50 || sum != 50*51/2 {
		t.Fatalf("range = (%d,%d,%v) want (50,%d)", cnt, sum, ok, 50*51/2)
	}
}

// TestSingleShardCrossOpsStayNative: with one shard, range/size queries
// bind to shard 0 and never enter snapshot mode (identical behaviour and
// cost to the unsharded system).
func TestSingleShardCrossOpsStayNative(t *testing.T) {
	sys, m := newMV(t, 1)
	th := sys.RegisterSharded()
	defer th.Unregister()
	for k := uint64(1); k <= 32; k++ {
		ds.Insert(th, m, k, k)
	}
	clockBefore := sys.ClockValue()
	const queries = 50
	for i := 0; i < queries; i++ {
		if n, ok := ds.Size(th, m); !ok || n != 32 {
			t.Fatalf("size=%d ok=%v", n, ok)
		}
	}
	// Snapshot mode would freeze (increment) the clock once per query;
	// native single-shard queries move it only on the rare spurious abort
	// of the deferred-clock discipline.
	if after := sys.ClockValue(); after-clockBefore >= queries {
		t.Fatalf("clock moved %d -> %d over %d single-shard size queries (entered snapshot mode?)", clockBefore, after, queries)
	}
}

// TestSingleShardUpdateBodyWithQuery: on a 1-shard system nothing spans
// shards, so an update body whose first operation is a query binds to the
// only shard and runs natively — exactly like the unsharded TM (regression:
// the probe used to reject it as a cross-shard query before checking the
// shard count).
func TestSingleShardUpdateBodyWithQuery(t *testing.T) {
	sys, m := newMV(t, 1)
	th := sys.RegisterSharded()
	defer th.Unregister()
	for k := uint64(1); k <= 16; k++ {
		ds.Insert(th, m, k, k)
	}
	var before int
	ok := th.Atomic(func(tx stm.Txn) {
		before = m.SizeTx(tx) // query first, then an update, one txn
		m.InsertTx(tx, 100, 1)
	})
	if !ok || before != 16 {
		t.Fatalf("query-first update body: ok=%v size=%d want (true,16)", ok, before)
	}
	if n, _ := ds.Size(th, m); n != 17 {
		t.Fatalf("final size %d want 17", n)
	}
}

// TestCancelSeesRealData: a body that cancels based on an operation result
// must make that decision against real data, never against the armed
// probe's placeholder (regression: Cancel during an armed probe used to be
// taken at face value, silently no-opping on present keys).
func TestCancelSeesRealData(t *testing.T) {
	sys, m := newMV(t, 4)
	th := sys.RegisterSharded()
	defer th.Unregister()
	ds.Insert(th, m, 42, 7)
	var got uint64
	ok := th.ReadOnly(func(tx stm.Txn) {
		v, found := m.SearchTx(tx, 42)
		if !found {
			tx.Cancel() // placeholder said absent; real data must win
		}
		got = v
	})
	if !ok || got != 7 {
		t.Fatalf("cancel-if-absent on a present key: ok=%v got=%d want (true,7)", ok, got)
	}
	// The Atomic variant: a guarded update must not be silently skipped.
	ok = th.Atomic(func(tx stm.Txn) {
		if _, found := m.SearchTx(tx, 42); !found {
			tx.Cancel()
		}
		m.DeleteTx(tx, 42)
		m.InsertTx(tx, 42, 8)
	})
	if !ok {
		t.Fatal("guarded update cancelled on placeholder data")
	}
	if v, found, _ := ds.Search(th, m, 42); !found || v != 8 {
		t.Fatalf("guarded update lost: got (%d,%v) want (8,true)", v, found)
	}
	// A cancel that is genuinely right (key truly absent) still cancels.
	ok = th.ReadOnly(func(tx stm.Txn) {
		if _, found := m.SearchTx(tx, 999); !found {
			tx.Cancel()
		}
	})
	if ok {
		t.Fatal("cancel on a truly absent key did not cancel")
	}
}

// TestAbortSeesRealData: stm.AbortAttempt driven by a placeholder result
// must not spin the probe forever — the armed probe hands the body to the
// shard's native retry loop, where the real value ends the retries.
func TestAbortSeesRealData(t *testing.T) {
	sys, m := newMV(t, 4)
	th := sys.RegisterSharded()
	defer th.Unregister()
	ds.Insert(th, m, 5, 1)
	done := make(chan bool, 1)
	go func() {
		var v uint64
		ok := th.ReadOnly(func(tx stm.Txn) {
			var found bool
			v, found = m.SearchTx(tx, 5)
			if !found {
				stm.AbortAttempt() // placeholder absent: must not loop on the probe
			}
		})
		done <- ok && v == 1
	}()
	select {
	case good := <-done:
		if !good {
			t.Fatal("abort-if-absent body did not read the real value")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("abort-if-absent body spun (probe retried on placeholder data)")
	}
}

// TestStatsAggregation: System.Stats sums shard counters.
func TestStatsAggregation(t *testing.T) {
	sys, m := newMV(t, 4)
	th := sys.RegisterSharded()
	defer th.Unregister()
	for k := uint64(1); k <= 100; k++ {
		ds.Insert(th, m, k, k)
	}
	total := sys.Stats()
	var sum uint64
	for _, st := range sys.ShardStats() {
		sum += st.Commits
	}
	if total.Commits != sum || total.Commits < 100 {
		t.Fatalf("stats: total=%d sum=%d", total.Commits, sum)
	}
}
