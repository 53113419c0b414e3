package server_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/wal"
)

func walOpts(dir string, shards int, mod func(*wal.Options)) wal.Options {
	o := wal.Options{
		Dir:           dir,
		Backend:       "multiverse",
		Shards:        shards,
		DS:            "hashmap",
		Capacity:      1 << 12,
		LockTable:     1 << 12,
		SegmentBytes:  1 << 16,
		GroupInterval: 500 * time.Microsecond,
	}
	if mod != nil {
		mod(&o)
	}
	return o
}

// startServer opens a WAL-backed map in dir and serves it on a loopback
// listener. The caller owns shutdown ordering (server first, then log).
func startServer(t *testing.T, dir string, shards int, mod func(*wal.Options), sopts server.Options) (*server.Server, *wal.Log, ds.Map, string) {
	t.Helper()
	return startLimited(t, dir, shards, mod, sopts, nil)
}

// startLimited is startServer with a hook that runs before Start (for
// Server.SetLimits).
func startLimited(t *testing.T, dir string, shards int, mod func(*wal.Options), sopts server.Options,
	before func(*server.Server)) (*server.Server, *wal.Log, ds.Map, string) {
	t.Helper()
	m, l, err := wal.OpenWith(walOpts(dir, shards, mod))
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	srv := server.New(l.System(), m, l, sopts)
	if before != nil {
		before(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv.Start(ln)
	return srv, l, m, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return cl
}

func TestRoundTrip(t *testing.T) {
	srv, l, _, addr := startServer(t, t.TempDir(), 2, nil, server.Options{Workers: 2})
	defer l.Close()
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for k := uint64(1); k <= 20; k++ {
		ins, err := cl.Insert(k, k*10)
		if err != nil || !ins {
			t.Fatalf("insert %d: ins=%v err=%v", k, ins, err)
		}
	}
	if ins, err := cl.Insert(7, 1); err != nil || ins {
		t.Fatalf("re-insert: ins=%v err=%v, want false nil", ins, err)
	}
	if v, found, err := cl.Search(7); err != nil || !found || v != 70 {
		t.Fatalf("search 7: v=%d found=%v err=%v", v, found, err)
	}
	if _, found, err := cl.Search(999); err != nil || found {
		t.Fatalf("search miss: found=%v err=%v", found, err)
	}
	if n, sum, err := cl.Range(1, 20); err != nil || n != 20 || sum != 210 {
		t.Fatalf("range: n=%d sum=%d err=%v, want 20/210", n, sum, err)
	}
	if n, err := cl.Size(); err != nil || n != 20 {
		t.Fatalf("size: n=%d err=%v, want 20", n, err)
	}
	if del, err := cl.Delete(20); err != nil || !del {
		t.Fatalf("delete: del=%v err=%v", del, err)
	}
	if n, err := cl.Size(); err != nil || n != 19 {
		t.Fatalf("size after delete: n=%d err=%v, want 19", n, err)
	}
	// Single-key batch: insert + delete + reinsert of one key is
	// single-shard by construction and must apply atomically, in order.
	res, err := cl.Batch([]wire.BatchOp{
		{Key: 500, Val: 1},
		{Del: true, Key: 500},
		{Key: 500, Val: 2},
	})
	if err != nil || len(res) != 3 || !res[0] || !res[1] || !res[2] {
		t.Fatalf("batch: res=%v err=%v", res, err)
	}
	if v, found, err := cl.Search(500); err != nil || !found || v != 2 {
		t.Fatalf("post-batch search: v=%d found=%v err=%v", v, found, err)
	}
	if res, err := cl.Batch(nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

func TestCrossShardBatchRefused(t *testing.T) {
	srv, l, _, addr := startServer(t, t.TempDir(), 2, nil, server.Options{Workers: 2})
	defer l.Close()
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.Close()

	sys := l.System()
	a := uint64(1)
	b := uint64(0)
	for k := uint64(2); k < 100; k++ {
		if sys.ShardOf(k) != sys.ShardOf(a) {
			b = k
			break
		}
	}
	if b == 0 {
		t.Fatal("no cross-shard key pair in 1..100")
	}
	_, err := cl.Batch([]wire.BatchOp{{Key: a, Val: 1}, {Key: b, Val: 2}})
	if !errors.Is(err, client.ErrCrossShard) {
		t.Fatalf("cross-shard batch err = %v, want ErrCrossShard", err)
	}
	// Refusal happens before execution: neither key may exist.
	for _, k := range []uint64{a, b} {
		if _, found, err := cl.Search(k); err != nil || found {
			t.Fatalf("key %d after refused batch: found=%v err=%v", k, found, err)
		}
	}
}

// TestAckedWritesSurviveRestart is the wire-level no-silent-loss contract:
// every insert acked with a nil error over the socket must be present after
// a graceful drain, log close, and recovery — under AckSync because each ack
// waited for its fsync, under AckCommit (acks sent at the commit point, none
// through the group-commit pipeline) because Shutdown's final Sync covers
// them.
func TestAckedWritesSurviveRestart(t *testing.T) {
	for _, c := range []struct {
		name   string
		ack    server.AckPolicy
		synced bool // acks ride the group-commit pipeline
	}{{"sync", server.AckSync, true}, {"commit", server.AckCommit, false}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, l, _, addr := startServer(t, dir, 2, nil, server.Options{Workers: 4, Ack: c.ack})

			const workers, perWorker = 4, 120
			acked := make([][]uint64, workers)
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					cl := dial(t, addr)
					defer cl.Close()
					for i := 0; i < perWorker; i++ {
						k := uint64(g*10000 + i + 1)
						if ins, err := cl.Insert(k, k); err == nil && ins {
							acked[g] = append(acked[g], k)
						}
					}
				}(g)
			}
			wg.Wait()
			if err := srv.Shutdown(10 * time.Second); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			st := srv.Stats()
			if st.Updates == 0 || (st.SyncedAcks > 0) != c.synced {
				t.Fatalf("%d updates, %d acks through the group-commit pipeline: the %s arm of stage was not the one exercised",
					st.Updates, st.SyncedAcks, c.name)
			}
			l.Close()

			m2, l2, err := wal.OpenWith(walOpts(dir, 2, nil))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			th := l2.System().Register()
			defer th.Unregister()
			pairs, ok := ds.Export(th, m2.(ds.Visitor), 1, ^uint64(0))
			if !ok {
				t.Fatal("export starved")
			}
			have := make(map[uint64]uint64, len(pairs))
			for _, kv := range pairs {
				have[kv.Key] = kv.Val
			}
			for g := range acked {
				for _, k := range acked[g] {
					if have[k] != k {
						t.Fatalf("acked key %d lost after restart (have=%d)", k, have[k])
					}
				}
			}
		})
	}
}

// TestSeveredStatus: after Crash the server refuses updates with a severed
// status instead of pretending, while reads keep serving memory.
func TestSeveredStatus(t *testing.T) {
	srv, l, _, addr := startServer(t, t.TempDir(), 1, nil, server.Options{Workers: 2})
	defer l.Close()
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.Close()

	if _, err := cl.Insert(1, 11); err != nil {
		t.Fatalf("insert: %v", err)
	}
	l.Crash()
	if _, err := cl.Insert(2, 22); !errors.Is(err, client.ErrSevered) {
		t.Fatalf("insert on severed log err = %v, want ErrSevered", err)
	}
	if v, found, err := cl.Search(1); err != nil || !found || v != 11 {
		t.Fatalf("read on severed log: v=%d found=%v err=%v", v, found, err)
	}
}

// TestDegradedStatusAndHeal: a sticky disk fault degrades the log; under
// either degraded-mode policy the client sees a bounded degraded error (no
// hang), and after Heal the same connection goes back to clean
// fsync-covered acks. Under DegradeReject the refusal comes from wal.Map
// cancelling the transaction (failStatus classifies it): nothing is
// applied, and reads keep being served meanwhile.
func TestDegradedStatusAndHeal(t *testing.T) {
	for _, mode := range []wal.DegradedMode{wal.DegradeStall, wal.DegradeReject} {
		t.Run(mode.String(), func(t *testing.T) {
			inj := fault.NewInjector(fault.OS, 1,
				fault.Rule{Ops: fault.OpWrite, Path: "wal-", Kth: 2})
			srv, l, _, addr := startServer(t, t.TempDir(), 1, func(o *wal.Options) {
				o.FS = inj
				o.DegradedMode = mode
				o.RetryLimit = 2
				o.RetryBackoffMax = 2 * time.Millisecond
				o.StallTimeout = 200 * time.Millisecond
			}, server.Options{Workers: 2})
			defer l.Close()
			defer srv.Close()
			cl := dial(t, addr)
			defer cl.Close()

			if _, err := cl.Insert(1, 1); !errors.Is(err, client.ErrDegraded) {
				t.Fatalf("insert on failing log err = %v, want ErrDegraded", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			k := uint64(100)
			if mode == wal.DegradeReject {
				// Key 1 committed in memory and lost only its ack. Keep
				// inserting until the exhausted retries make wal.Map refuse
				// one outright: same status, and that key was never applied.
				for ; ; k++ {
					if !time.Now().Before(deadline) {
						t.Fatal("reject mode never engaged over the wire")
					}
					before := l.Stats().RejectedOps
					if _, err := cl.Insert(k, k); !errors.Is(err, client.ErrDegraded) {
						t.Fatalf("insert %d on degraded log err = %v, want ErrDegraded", k, err)
					}
					if l.Stats().RejectedOps > before {
						break // k was refused
					}
				}
				if _, found, err := cl.Search(k); err != nil || found {
					t.Fatalf("refused key %d: found=%v err=%v, want absent and served", k, found, err)
				}
				if v, found, err := cl.Search(1); err != nil || !found || v != 1 {
					t.Fatalf("read while degraded: v=%d found=%v err=%v", v, found, err)
				}
			}
			inj.Heal()
			for {
				if _, err := cl.Insert(k, k); err == nil {
					break
				}
				if !time.Now().Before(deadline) {
					t.Fatal("log never healed over the wire")
				}
				k++
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestClientWriteFaultDrain: a client whose request frame tears mid-send
// reports ErrNotSent, and everything acked before the tear is on the
// server; the torn request was never executed.
func TestClientWriteFaultDrain(t *testing.T) {
	srv, l, _, addr := startServer(t, t.TempDir(), 1, nil, server.Options{Workers: 2})
	defer l.Close()
	defer srv.Close()

	inj := fault.NewInjector(fault.OS, 7,
		fault.Rule{Ops: fault.OpWrite, Path: "cli", Kth: 5, Short: true})
	cl, err := client.Dial(addr, client.Options{Fault: inj})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var okKeys []uint64
	var tornKey uint64
	for k := uint64(1); k <= 10; k++ {
		_, err := cl.Insert(k, k)
		switch {
		case err == nil:
			okKeys = append(okKeys, k)
		case errors.Is(err, client.ErrNotSent):
			if tornKey == 0 {
				tornKey = k
			}
		default:
			t.Fatalf("insert %d: unexpected err %v", k, err)
		}
	}
	cl.Close()
	if len(okKeys) == 0 || tornKey == 0 {
		t.Fatalf("fault site never exercised: ok=%d torn=%d", len(okKeys), tornKey)
	}

	clean := dial(t, addr)
	defer clean.Close()
	for _, k := range okKeys {
		if _, found, err := clean.Search(k); err != nil || !found {
			t.Fatalf("acked key %d missing after conn fault (err=%v)", k, err)
		}
	}
	if _, found, err := clean.Search(tornKey); err != nil || found {
		t.Fatalf("torn request executed: key %d present (err=%v)", tornKey, err)
	}
}

// TestServerReadFaultUnanswered: a read fault on the server's side of the
// conn severs it mid-request; the fully-sent request resolves as
// ErrUnanswered and was not executed.
func TestServerReadFaultUnanswered(t *testing.T) {
	// One Read on the server's side is one fill of the connection's frame
	// buffer: everything the peer has sent since the last one. This client
	// waits for each answer before it sends again, so fill k is request k,
	// whole; failing the 2nd severs the conn after the client fully sent
	// request 2 and before the server saw a byte of it.
	inj := fault.NewInjector(fault.OS, 3,
		fault.Rule{Ops: fault.OpRead, Path: "srv-1", Kth: 2})
	srv, l, _, addr := startServer(t, t.TempDir(), 1, nil,
		server.Options{Workers: 2, ConnFault: inj})
	defer l.Close()
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.Close()

	sawUnanswered := false
	var lostKey uint64
	for k := uint64(1); k <= 5; k++ {
		if _, err := cl.Insert(k, k); err != nil {
			if !errors.Is(err, client.ErrUnanswered) && !errors.Is(err, client.ErrNotSent) {
				t.Fatalf("insert %d: unexpected err %v", k, err)
			}
			if errors.Is(err, client.ErrUnanswered) && lostKey == 0 {
				sawUnanswered = true
				lostKey = k
			}
		}
	}
	if !sawUnanswered {
		t.Fatal("read fault never produced an unanswered request")
	}
	clean := dial(t, addr)
	defer clean.Close()
	if _, found, err := clean.Search(lostKey); err != nil || found {
		t.Fatalf("unanswered request executed: key %d present (err=%v)", lostKey, err)
	}
}

// TestCorruptFrameSeversConn: a frame with a bad checksum is a protocol
// violation; the server answers nothing for it and closes the connection.
func TestCorruptFrameSeversConn(t *testing.T) {
	srv, l, _, addr := startServer(t, t.TempDir(), 1, nil, server.Options{Workers: 1})
	defer l.Close()
	defer srv.Close()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	frame := wire.AppendFrame(nil, wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpPing}))
	frame[4] ^= 0xff // break the checksum
	if _, err := nc.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if n, err := nc.Read(buf); err == nil {
		t.Fatalf("server answered a corrupt frame with %d bytes", n)
	}
}
