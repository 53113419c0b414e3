package replica

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/stm"
	"repro/internal/wal"
	"repro/internal/workload"
)

func leaderOpts(dir, backend string, shards int, mod func(*wal.Options)) wal.Options {
	o := wal.Options{
		Dir:           dir,
		Backend:       backend,
		Shards:        shards,
		DS:            "hashmap",
		Capacity:      1 << 12,
		LockTable:     1 << 12,
		SegmentBytes:  1 << 12,
		GroupInterval: 500 * time.Microsecond,
	}
	if mod != nil {
		mod(&o)
	}
	return o
}

func mustLeader(t *testing.T, o wal.Options) (ds.Map, *wal.Log) {
	t.Helper()
	m, l, err := wal.OpenWith(o)
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	return m, l
}

// exportLeader snapshots the leader's whole map, sorted.
func exportLeader(t *testing.T, l *wal.Log, m ds.Map) []ds.KV {
	t.Helper()
	pairs, ok := ds.ExportSorted(l.System(), m)
	if !ok {
		t.Fatal("leader export starved")
	}
	return pairs
}

// exportReplica snapshots the follower's map through its own system.
func exportReplica(t *testing.T, r *Replica) []ds.KV {
	t.Helper()
	pairs, ok := ds.ExportSorted(r.System(), r.Map())
	if !ok {
		t.Fatal("replica export starved")
	}
	return pairs
}

func kvEqual(a, b []ds.KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// churn commits n delete+insert pairs over a small key space.
func churn(t *testing.T, l *wal.Log, m ds.Map, seed uint64, n int) {
	t.Helper()
	th := l.System().Register()
	defer th.Unregister()
	rng := workload.NewRng(seed)
	for i := 0; i < n; i++ {
		k := rng.Next()%512 + 1
		if rng.Next()%3 == 0 {
			ds.Delete(th, m, k)
		} else {
			ds.Insert(th, m, k, rng.Next())
		}
	}
}

// pausableFS fails directory listings while paused, so every follower poll
// errors out before it reads anything: the test changes the tailed directory
// behind a follower that is provably standing still.
type pausableFS struct {
	fault.FS
	paused atomic.Bool
}

func (p *pausableFS) ReadDir(dir string) ([]string, error) {
	if p.paused.Load() {
		return nil, fault.EIO
	}
	return p.FS.ReadDir(dir)
}

// TestReplicaFollowsLeader: the differential oracle, across backends and a
// shard-count mismatch — the follower must converge on exactly the leader's
// state, through checkpoints truncating the log it is tailing.
func TestReplicaFollowsLeader(t *testing.T) {
	cases := []struct {
		name           string
		backend        string
		leaderShards   int
		followerShards int
	}{
		{"multiverse", "multiverse", 2, 0}, // 0: derive from dir
		{"tl2", "tl2", 2, 0},
		{"dctl", "dctl", 2, 0},
		{"reshard", "multiverse", 4, 2}, // follower splits records itself
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, l := mustLeader(t, leaderOpts(dir, tc.backend, tc.leaderShards, nil))
			defer l.Close()
			churn(t, l, m, 5, 500)
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}

			pfs := &pausableFS{FS: fault.OS}
			r, err := Open(Options{Dir: dir, Backend: tc.backend, Shards: tc.followerShards, FS: pfs})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Close()
			if err := r.CatchUp(5 * time.Second); err != nil {
				t.Fatalf("CatchUp: %v", err)
			}
			if got, want := exportReplica(t, r), exportLeader(t, l, m); !kvEqual(got, want) {
				t.Fatalf("follower diverged after initial catch-up: %d vs %d pairs", len(got), len(want))
			}
			if h := r.Health(); h != CaughtUp {
				t.Fatalf("Health = %v after catch-up, want CaughtUp", h)
			}

			// Keep writing, checkpoint under the running tail, write more.
			churn(t, l, m, 6, 400)
			if _, err := l.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			churn(t, l, m, 7, 400)
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := r.CatchUp(5 * time.Second); err != nil {
				t.Fatalf("CatchUp after churn: %v", err)
			}
			if got, want := exportReplica(t, r), exportLeader(t, l, m); !kvEqual(got, want) {
				t.Fatalf("follower diverged after checkpointed churn: %d vs %d pairs", len(got), len(want))
			}
			st := r.Stats()
			if st.AppliedRecs == 0 || st.AppliedTs == 0 {
				t.Fatalf("no application recorded: %+v", st)
			}

			// Forced rebase against the follower's own state. With the
			// follower stopped and holding `gone` and `changed`, the leader
			// deletes one, overwrites the other, rotates every stream past
			// the tailed segment and checkpoints, so truncation deletes the
			// records that said so: the only way the follower learns of
			// either is by diffing the new base against the map it holds.
			const gone, changed = 1001, 1002 // outside churn's key space
			th := l.System().Register()
			defer th.Unregister()
			ds.Insert(th, m, gone, 1)
			ds.Insert(th, m, changed, 2)
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := r.CatchUp(5 * time.Second); err != nil {
				t.Fatalf("CatchUp before the pause: %v", err)
			}
			pfs.paused.Store(true)
			for r.Err() == nil { // a poll failed: every later one fails first thing
				time.Sleep(100 * time.Microsecond)
			}
			held := exportReplica(t, r)
			ds.Delete(th, m, gone)
			ds.Delete(th, m, changed)
			ds.Insert(th, m, changed, 20)
			for k := uint64(1); k <= 1500; k++ { // delete+insert: two records per key, present or not
				ds.Delete(th, m, k%512+1)
				ds.Insert(th, m, k%512+1, k)
			}
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if _, err := l.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if got := exportReplica(t, r); !kvEqual(got, held) {
				t.Fatal("follower moved while its directory listings were failing")
			}
			pfs.paused.Store(false)
			if err := r.CatchUp(5 * time.Second); err != nil {
				t.Fatalf("CatchUp after the forced rebase: %v", err)
			}
			if n := r.Stats().Rebases; n < 2 {
				t.Fatalf("Rebases = %d: checkpoint truncation never outran the stopped tail", n)
			}
			if got, want := exportReplica(t, r), exportLeader(t, l, m); !kvEqual(got, want) {
				t.Fatalf("follower diverged after the forced rebase: %d vs %d pairs", len(got), len(want))
			}
			if _, found, _ := ds.Search(th, m, gone); found {
				t.Fatal("leader still holds the deleted key: the recipe tested nothing")
			}
		})
	}
}

// TestReplicaFollowsReshardedLeader: a directory reopened under another
// shard count holds one key in two streams — the legacy one and, from its next
// write on, a new one — unless the reopen truncates the legacy streams, and a
// tailer that read them independently would let the older record land last.
// Three followers must equal the leader after two thirds of the keys were
// overwritten under the new layout (the rest then live in the reopen's
// checkpoint alone): one caught up before the reopen (the truncation under
// its tails makes it rebase), one opened from scratch on the directory, and
// one whose empty mirror the channel starts to fill only after its first poll
// — it takes the checkpoint as a base when that arrives, behind the
// segments; and promotion must still recover the same state.
func TestReplicaFollowsReshardedLeader(t *testing.T) {
	dir, mirror := t.TempDir(), t.TempDir()
	const keys, rewritten = 300, 200
	write := func(l *wal.Log, m ds.Map, n, mul uint64) {
		t.Helper()
		th := l.System().Register()
		defer th.Unregister()
		for k := uint64(1); k <= n; k++ {
			ds.Delete(th, m, k)
			if ins, ok := ds.Insert(th, m, k, k*mul); !ok || !ins {
				t.Fatalf("insert %d: ins=%v ok=%v", k, ins, ok)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	follow := func(o Options) *Replica {
		t.Helper()
		r, err := Open(o)
		if err != nil {
			t.Fatalf("Open %+v: %v", o, err)
		}
		t.Cleanup(r.Close)
		return r
	}

	m, l := mustLeader(t, leaderOpts(dir, "multiverse", 4, nil))
	write(l, m, keys, 3)
	early := follow(Options{Dir: dir})
	if err := early.CatchUp(5 * time.Second); err != nil {
		t.Fatalf("CatchUp under the old layout: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m, l = mustLeader(t, leaderOpts(dir, "multiverse", 2, nil))
	defer l.Close()
	write(l, m, rewritten, 5)
	fresh, shipped := follow(Options{Dir: dir}), follow(Options{Dir: mirror})
	if err := shipped.CatchUp(5 * time.Second); err != nil { // on nothing: its base is the empty image
		t.Fatalf("CatchUp on the empty mirror: %v", err)
	}
	sh, rc, wait := shipPair(t, dir, mirror, nil)
	defer func() { sh.Stop(); rc.Stop(); wait() }()
	for name, r := range map[string]*Replica{"early": early, "fresh": fresh, "shipped": shipped} {
		t.Log(name)
		awaitEqual(t, r, l, m, 10*time.Second)
	}

	want := exportLeader(t, l, m)
	l.Close()
	pm, pl, err := fresh.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer pl.Close()
	if got := exportLeader(t, pl, pm); !kvEqual(got, want) {
		t.Fatalf("promotion over the resharded directory diverged: %d vs %d pairs", len(got), len(want))
	}
}

// TestReplicaFeedRedials: a follower that owns its feed reports lagging, with
// the dial error, while the leader's shipping address refuses it, and is
// caught up with no error once a session is up again — the error of a dial
// that failed earlier must not outlive it — across two outages: a leader
// that is not there yet, and one that goes away and comes back.
func TestReplicaFeedRedials(t *testing.T) {
	dir, mirror := t.TempDir(), t.TempDir()
	m, l := mustLeader(t, leaderOpts(dir, "multiverse", 2, nil))
	defer l.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	r, err := Open(Options{Dir: mirror, Leader: addr, Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	th := l.System().Register()
	defer th.Unregister()
	for round := uint64(0); round < 2; round++ {
		for deadline := time.Now().Add(5 * time.Second); r.Err() == nil; time.Sleep(time.Millisecond) {
			if !time.Now().Before(deadline) {
				t.Fatalf("round %d: no feed error with nothing listening on %s", round, addr)
			}
		}
		if h := r.Health(); h != Lagging {
			t.Fatalf("round %d: Health = %v with the leader unreachable (%v)", round, h, r.Err())
		}
		for k := round*100 + 1; k <= round*100+100; k++ {
			ds.Insert(th, m, k, k*7)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		if ln, err = net.Listen("tcp", addr); err != nil {
			t.Fatalf("listen again on %s: %v", addr, err)
		}
		svc := ServeShipping(ln, dir, ShipperOptions{Interval: 200 * time.Microsecond})
		awaitEqual(t, r, l, m, 10*time.Second)
		if err := r.CatchUp(5 * time.Second); err != nil {
			t.Fatalf("round %d: CatchUp after the redial: %v", round, err)
		}
		if h := r.Health(); h != CaughtUp {
			t.Fatalf("round %d: Health = %v after the redial (%v)", round, h, r.Err())
		}
		svc.Close()
	}
}

// TestReplicaServesSnapshotReads: follower scans pinned at a frozen ts must
// never observe a torn transaction. The leader moves a fixed sum between two
// keys in single transactions (shards=1 keeps update transactions
// shard-confined, as the shard contract requires); every follower range scan
// must see the invariant sum, whatever prefix of transfers it reflects.
func TestReplicaServesSnapshotReads(t *testing.T) {
	dir := t.TempDir()
	m, l := mustLeader(t, leaderOpts(dir, "multiverse", 1, nil))
	defer l.Close()

	const total = uint64(1000)
	th := l.System().Register()
	ds.Insert(th, m, 1, total)
	ds.Insert(th, m, 2, 0)
	th.Unregister()
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if err := r.CatchUp(5 * time.Second); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}

	stop := make(chan struct{})
	go func() {
		defer close(stop)
		wth := l.System().Register()
		defer wth.Unregister()
		rng := workload.NewRng(13)
		for i := 0; i < 400; i++ {
			amt := rng.Next() % 10
			wth.Atomic(func(tx stm.Txn) {
				a, _ := m.SearchTx(tx, 1)
				b, _ := m.SearchTx(tx, 2)
				if a < amt {
					return
				}
				m.DeleteTx(tx, 1)
				m.DeleteTx(tx, 2)
				m.InsertTx(tx, 1, a-amt)
				m.InsertTx(tx, 2, b+amt)
			})
		}
	}()

	rth := r.System().Register()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		var a, b uint64
		var okA, okB bool
		if !rth.ReadOnly(func(tx stm.Txn) {
			a, okA = r.Map().SearchTx(tx, 1)
			b, okB = r.Map().SearchTx(tx, 2)
		}) {
			continue
		}
		// A transfer deletes both keys then reinserts both inside one
		// transaction, so a pinned read sees either both or a state where
		// the sum still holds — never a torn intermediate.
		if !okA || !okB || a+b != total {
			t.Fatalf("torn follower read: a=%d(%v) b=%d(%v), want sum %d", a, okA, b, okB, total)
		}
	}
	rth.Unregister()
}

// TestReplicaPromote: after the leader dies mid-write, promoting the
// follower over the same directory must recover exactly the leader's acked
// (synced) state — zero acked-record loss — and the promoted log must
// accept new writes above every applied timestamp.
func TestReplicaPromote(t *testing.T) {
	dir := t.TempDir()
	m, l := mustLeader(t, leaderOpts(dir, "multiverse", 2, nil))
	churn(t, l, m, 21, 600)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	acked := exportLeader(t, l, m)

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.CatchUp(5 * time.Second); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	maxApplied := r.AppliedTs()
	l.Crash() // leader dies; its unsynced tail is fair game, acked state is not

	pm, pl, err := r.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer pl.Close()
	if h := r.Health(); h != Severed {
		t.Fatalf("Health = %v after promote, want Severed", h)
	}
	got := exportLeader(t, pl, pm)
	if !kvEqual(got, acked) {
		t.Fatalf("promotion lost acked state: %d vs %d pairs", len(got), len(acked))
	}

	// New writes must land above everything applied pre-promotion: the
	// recovery clock restart guarantees fresh timestamps never collide with
	// replicated history.
	pth := pl.System().Register()
	if ins, ok := ds.Insert(pth, pm, 1<<40, 42); !ok || !ins {
		t.Fatalf("insert on promoted leader: ins=%v ok=%v", ins, ok)
	}
	pth.Unregister()
	if err := pl.Sync(); err != nil {
		t.Fatalf("Sync on promoted leader: %v", err)
	}
	// A fresh tailer over the promoted log sees the new write with a ts
	// above the old applied watermark.
	sr := wal.OpenShipReader(dir, nil)
	var newMax uint64
	for empty := 0; empty < 2; {
		b, err := sr.Poll()
		if err != nil {
			t.Fatalf("post-promotion poll: %v", err)
		}
		if !b.Rebase && len(b.Recs) == 0 {
			empty++
			continue
		}
		empty = 0
		for _, rec := range b.Recs {
			if rec.Ts > newMax {
				newMax = rec.Ts
			}
		}
	}
	if newMax <= maxApplied {
		t.Fatalf("promoted leader ts %d did not advance past applied %d", newMax, maxApplied)
	}
}

// TestApplyOpsAllocFree pins the applier's per-record cost: once warm,
// applying a record allocates nothing — an insert, an upsert over a held
// key (the delete-then-insert arm) and a delete, each its own record. The
// session is severed first so that only the calls measured here run.
func TestApplyOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned race-off")
	}
	r, err := Open(Options{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Sever()
	th := r.sys.RegisterSharded()
	defer th.Unregister()
	ins := []stm.RedoRec{{Op: stm.RedoInsert}}
	up := []stm.RedoRec{{Op: stm.RedoInsert}}
	del := []stm.RedoRec{{Op: stm.RedoDelete}}
	key := uint64(0)
	apply := func() {
		key++
		ins[0].Key, ins[0].Val = key, key
		up[0].Key, up[0].Val = key, key+1
		del[0].Key = key
		for _, ops := range [][]stm.RedoRec{ins, up, del} {
			if err := r.applyOps(th, ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(500, apply); n != 0 {
		t.Fatalf("applyOps: %v allocs per insert+upsert+delete, want 0", n)
	}
	if pairs, ok := ds.ExportSorted(r.sys, r.m); !ok || len(pairs) != 0 {
		t.Fatalf("after applying and deleting every key: %v (ok=%v), want empty", pairs, ok)
	}
}
