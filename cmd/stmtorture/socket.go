package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/histcheck"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The socket workload drives the crash workload's recorded-history protocol
// through a real TCP server (internal/server) instead of in-process calls:
// rounds boot stmserve's stack on a loopback listener, hammer it with
// point ops and cross-shard snapshot reads over pipelined client
// connections, then drain, crash the log, recover, and audit — exact
// equality against the drained state (no acked-but-lost writes across the
// wire) plus the prefix-consistency history check.
//
// Rounds rotate deterministic fault.Injector schedules over the *conn*
// seam: torn client request frames (short writes), mid-request server read
// severs, sticky per-connection failures and added latency. The fault sites
// are confined to client-side writes and server-side reads, which is what
// keeps discarding unanswered operations sound: the server answers every
// request it fully received before closing a connection (bounded drain),
// and a client that hits a write fault half-closes and reads to EOF — so
// an operation with no response was never executed.

type socketConfig struct {
	tm      string
	threads int
	seed    uint64
	dur     time.Duration
}

// connSite is one named conn-fault schedule (the socket counterpart of
// faultdisk's faultSite). Paths address injConn names: "cli-<worker>" on
// the client side, "srv-<n>" (accept order) on the server side.
var connSites = []faultSite{
	{"faultless", nil},
	{"cli-write-once", []fault.Rule{{Ops: fault.OpWrite, Path: "cli-", Kth: 30, Times: 1}}},
	{"cli-write-torn", []fault.Rule{{Ops: fault.OpWrite, Path: "cli-", Kth: 20, Times: 3, Short: true}}},
	{"cli-write-sticky-one", []fault.Rule{{Ops: fault.OpWrite, Path: "cli-0", Kth: 40}}},
	{"srv-read-once", []fault.Rule{{Ops: fault.OpRead, Path: "srv-", Kth: 50, Times: 1}}},
	{"srv-read-sticky-one", []fault.Rule{{Ops: fault.OpRead, Path: "srv-1", Kth: 60}}},
	{"latency", []fault.Rule{{Ops: fault.OpRead | fault.OpWrite, Delay: 100 * time.Microsecond}}},
}

func socketTorture(c socketConfig) bool {
	if notDurable("socket", c.tm) {
		return true
	}
	deadline := time.Now().Add(c.dur)
	rounds, faulted, severed := 0, 0, uint64(0)
	for time.Now().Before(deadline) {
		site := connSites[rounds%len(connSites)]
		policy := []wal.SyncPolicy{wal.SyncGroup, wal.SyncEveryCommit, wal.SyncNone}[(rounds/2)%3]
		shards := []int{1, 2}[(rounds/3)%2]
		dsName := []string{"hashmap", "abtree"}[(rounds/5)%2]
		seed := c.seed + uint64(rounds)*0x9e3779b97f4a7c15
		ok, sev := socketRound(c, site, policy, shards, dsName, seed, rounds)
		severed += sev
		if !ok {
			fmt.Printf("socket   tm=%-12s VIOLATION round=%d site=%s policy=%s shards=%d ds=%s round-seed=%d (base seed %d)\n",
				c.tm, rounds, site.name, policy, shards, dsName, seed, c.seed)
			fmt.Printf("  reproduce (reaches round %d deterministically): go run ./cmd/stmtorture -workload socket -tm %s -threads %d -seed %d -dur 10m\n",
				rounds, c.tm, c.threads, c.seed)
			return false
		}
		if site.rules != nil {
			faulted++
		}
		rounds++
	}
	fmt.Printf("socket   tm=%-12s rounds=%-5d faulted=%-4d conn-severs=%-5d violations=0\n",
		c.tm, rounds, faulted, severed)
	return true
}

// socketRound runs one serve → hammer-over-TCP → drain → crash → recover →
// audit cycle. It reports (audit ok, connections severed by faults).
func socketRound(c socketConfig, site faultSite, policy wal.SyncPolicy,
	shards int, dsName string, seed uint64, round int) (bool, uint64) {
	dir, err := os.MkdirTemp("", "stmtorture-socket-*")
	if err != nil {
		fmt.Printf("  socket round %d: tempdir: %v\n", round, err)
		return false, 0
	}
	defer os.RemoveAll(dir)

	// The disk stays healthy (fault.OS): this workload isolates the conn
	// seam, so a failed final Sync or lost acked write is the server's
	// fault, not the disk's.
	opts := wal.Options{
		Dir: dir, Backend: c.tm, Shards: shards, DS: dsName,
		Capacity: 1 << 12, LockTable: 1 << 14,
		SegmentBytes: 1 << 18, Policy: policy,
		GroupInterval: 200 * time.Microsecond,
		Rec:           torRec,
	}
	m, l, err := wal.OpenWith(opts)
	if err != nil {
		fmt.Printf("  socket round %d: open: %v\n", round, err)
		return false, 0
	}

	// One injector carries both halves of the conn seam: the server wraps
	// accepted conns as "srv-<n>", the clients wrap theirs as
	// "cli-<worker>", and Heal (unused here) would disarm both at once.
	inj := fault.NewInjector(fault.OS, seed, site.rules...)
	srv := server.New(l.System(), m, l, server.Options{
		Workers: c.threads, ConnFault: inj, DrainTimeout: 5 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("  socket round %d: listen: %v\n", round, err)
		l.Close()
		return false, 0
	}
	srv.Start(ln)
	addr := srv.Addr().String()

	hist := histcheck.NewHistory(c.threads, crashSlabCap)
	var stop atomic.Bool
	var unexpected, severed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < c.threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			socketWorker(addr, inj, w, hist.Recorder(w), &stop,
				seed^uint64(w+1)*0xbf58476d1ce4e5b9, &unexpected, &severed)
		}(w)
	}
	time.Sleep(80 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Graceful drain; on a healthy disk the final Sync barrier must be
	// clean — every response the clients saw as OK is now on disk.
	if err := srv.Shutdown(10 * time.Second); err != nil {
		fmt.Printf("  socket round %d: drain final sync failed on a healthy disk: %v\n", round, err)
		l.Close()
		return false, severed.Load()
	}
	if n := unexpected.Load(); n != 0 {
		fmt.Printf("  socket round %d: %d operations resolved with impossible errors (degraded/severed/bad-request on a healthy run)\n", round, n)
		l.Close()
		return false, severed.Load()
	}

	acked, _ := ds.ExportSorted(l.System(), m)
	l.Crash()
	l.Close()

	m2, l2, err := wal.OpenWith(opts)
	if err != nil {
		fmt.Printf("  socket round %d: recovery failed: %v\n", round, err)
		return false, severed.Load()
	}
	recovered, _ := ds.ExportSorted(l2.System(), m2)
	l2.Crash()
	l2.Close()
	if !slices.Equal(recovered, acked) {
		fmt.Printf("  acked-but-lost across the wire: recovered %d pairs, drained server held %d\n",
			len(recovered), len(acked))
		return false, severed.Load()
	}
	return auditPrefixConsistent(hist, recovered, round), severed.Load()
}

// socketWorker is crashWorker speaking the wire protocol: the same
// recorded-history op mix (plus the cross-shard snapshot reads only the
// server exposes), with transport-severed connections redialed. Operation
// outcomes map onto the recorder as:
//
//	definite result          → Return
//	ErrAborted (starved)     → Discard (nothing applied)
//	ErrNotSent/ErrUnanswered → Discard (never executed; see the fault-site
//	                           discipline in the workload comment)
//	anything else            → impossible on a healthy disk; counted and
//	                           the round fails loudly, because discarding
//	                           an executed update would unsound the audit
func socketWorker(addr string, inj *fault.Injector, idx int, rec *histcheck.Recorder,
	stop *atomic.Bool, seed uint64, unexpected, severed *atomic.Uint64) {
	const maxRedials = 8
	redials := 0
	name := fmt.Sprintf("cli-%d", idx)
	cl, err := client.Dial(addr, client.Options{Fault: inj, Name: name, Timeout: 5 * time.Second})
	if err != nil {
		unexpected.Add(1)
		return
	}
	defer func() { cl.Close() }()
	r := workload.NewRng(seed)
	for i := 0; i < crashSlabCap; i++ {
		if stop.Load() {
			return
		}
		key := r.Next()%crashKeyRange + 1
		var tok int
		var opErr error
		switch r.Intn(8) {
		case 0, 1:
			val := r.Next()
			tok = rec.Invoke(histcheck.Insert, key, val)
			var ins bool
			ins, opErr = cl.Insert(key, val)
			if opErr == nil {
				rec.Return(tok, ins, 0, 0, 0)
			}
		case 2, 3:
			tok = rec.Invoke(histcheck.Delete, key, 0)
			var del bool
			del, opErr = cl.Delete(key)
			if opErr == nil {
				rec.Return(tok, del, 0, 0, 0)
			}
		case 4:
			lo, hi := key, key+8
			tok = rec.Invoke(histcheck.Range, lo, hi)
			var count int
			var sum uint64
			count, sum, opErr = cl.Range(lo, hi)
			if opErr == nil {
				rec.Return(tok, false, 0, count, sum)
			}
		case 5:
			tok = rec.Invoke(histcheck.Size, 0, 0)
			var n int
			n, opErr = cl.Size()
			if opErr == nil {
				rec.Return(tok, false, 0, n, 0)
			}
		default:
			tok = rec.Invoke(histcheck.Search, key, 0)
			var v uint64
			var found bool
			v, found, opErr = cl.Search(key)
			if opErr == nil {
				rec.Return(tok, found, v, 0, 0)
			}
		}
		if opErr == nil {
			continue
		}
		rec.Discard(tok)
		switch {
		case errors.Is(opErr, client.ErrAborted):
			// starved at the TM; definite no-effect
		case errors.Is(opErr, client.ErrNotSent), errors.Is(opErr, client.ErrUnanswered):
			severed.Add(1)
			cl.Close()
			if redials++; redials > maxRedials {
				return
			}
			cl, err = client.Dial(addr, client.Options{
				Fault: inj,
				// Redialed conns keep the worker prefix so per-client
				// sticky rules ("cli-0") follow them.
				Name:    fmt.Sprintf("%s-r%d", name, redials),
				Timeout: 5 * time.Second,
			})
			if err != nil {
				unexpected.Add(1)
				return
			}
		default:
			unexpected.Add(1)
		}
	}
}
