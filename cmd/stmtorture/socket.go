package main

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/histcheck"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
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
// severs, sticky per-connection failures, added latency, and a peer that
// sends half a frame and stalls. The fault sites are confined to client-side
// writes and server-side reads, which is what keeps discarding unanswered
// operations sound: the server answers every request it fully received
// before closing a connection (bounded drain), and a client that hits a
// write fault half-closes and reads to EOF — so an operation with no
// response was never executed.
//
// What a Kth counts on the server side: one Read there is one fill of the
// connection's frame buffer — everything the peer sent since the last fill,
// which for these workers (one outstanding call per connection) is one whole
// request — and a read fault loses the fill it fires on (fault.Injector.Conn).
// So an "srv-" rule's Kth is the request, counted over the matched
// connections, that is severed after it was fully sent: it resolves
// ErrUnanswered and was never executed.

var socketScenario = scenario{
	name: "socket",
	// Paths address injConn names: "cli-<worker>" on the client side,
	// "srv-<n>" (accept order) on the server side.
	sites: []faultSite{
		{"faultless", nil},
		{"cli-write-once", []fault.Rule{{Ops: fault.OpWrite, Path: "cli-", Kth: 30, Times: 1}}},
		{"cli-write-torn", []fault.Rule{{Ops: fault.OpWrite, Path: "cli-", Kth: 20, Times: 3, Short: true}}},
		{"cli-write-sticky-one", []fault.Rule{{Ops: fault.OpWrite, Path: "cli-0", Kth: 40}}},
		{"srv-read-once", []fault.Rule{{Ops: fault.OpRead, Path: "srv-", Kth: 17, Times: 1}}},
		{"srv-read-sticky-one", []fault.Rule{{Ops: fault.OpRead, Path: "srv-1", Kth: 20}}},
		{"latency", []fault.Rule{{Ops: fault.OpRead | fault.OpWrite, Delay: 100 * time.Microsecond}}},
		// Tears the one frame the round's idle peer sends (see socketBody).
		{"slow-loris", []fault.Rule{{Ops: fault.OpWrite, Path: "loris", Short: true}}},
	},
	policyStride:  2,
	shards:        []int{1, 2},
	shardStride:   3,
	dsStride:      5,
	segBytes:      1 << 18,
	groupInterval: 200 * time.Microsecond,
	summary:       []string{"faulted", "conn-severs"},
	body:          socketBody,
}

// socketBody runs one serve → hammer-over-TCP → drain → crash → recover →
// audit cycle.
func socketBody(rd *round) bool {
	// The disk stays healthy (fault.OS): this workload isolates the conn
	// seam, so a failed final Sync or lost acked write is the server's
	// fault, not the disk's.
	m, l, err := wal.OpenWith(rd.opts)
	if err != nil {
		return rd.fail("open: %v", err)
	}
	defer l.Close()

	// One injector carries both halves of the conn seam: the server wraps
	// accepted conns as "srv-<n>", the clients wrap theirs as
	// "cli-<worker>", and Heal (unused here) would disarm both at once.
	inj := fault.NewInjector(fault.OS, rd.seed, rd.site.rules...)
	srv := server.New(l.System(), m, l, server.Options{
		Workers: rd.threads, ConnFault: inj, DrainTimeout: 5 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rd.fail("listen: %v", err)
	}
	srv.Start(ln)
	addr := srv.Addr().String()

	var unexpected, severed atomic.Uint64
	rd.spawn(func(w int, rec *histcheck.Recorder, seed uint64) {
		socketWorker(addr, inj, w, rec, &rd.stop, seed, &unexpected, &severed)
	})
	time.Sleep(40 * time.Millisecond)
	// Mid-window (the workers hold srv-1..srv-<threads> by now) one more
	// peer arrives: it sends a single ping and then holds its connection
	// open, silent, through the drain. Only the slow-loris site has a rule
	// for it — a short write, so half a frame arrives and nothing ever
	// follows. Either way it must cost nobody an answer and must not hold
	// up the Shutdown below.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		return rd.fail("dial: %v", err)
	}
	defer idle.Close()
	ping := wire.AppendFrame(nil, wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpPing}))
	inj.Conn(idle, "loris").Write(ping) // a torn write is the slow-loris site's point
	time.Sleep(40 * time.Millisecond)
	rd.quiesce()
	rd.counts["conn-severs"] += int(severed.Load())
	if rd.site.rules != nil {
		rd.counts["faulted"]++
	}

	// Graceful drain; on a healthy disk the final Sync barrier must be
	// clean — every response the clients saw as OK is now on disk.
	if err := srv.Shutdown(10 * time.Second); err != nil {
		return rd.fail("drain final sync failed on a healthy disk: %v", err)
	}
	if n := unexpected.Load(); n != 0 {
		return rd.fail("%d operations resolved with impossible errors (degraded/severed/bad-request on a healthy run)", n)
	}

	acked, _ := ds.ExportSorted(l.System(), m)
	l.Crash()
	l.Close()

	recovered, err := recoverState(rd.opts)
	if err != nil {
		return rd.fail("recovery failed: %v", err)
	}
	if !slices.Equal(recovered, acked) {
		return rd.fail("acked-but-lost across the wire: recovered %d pairs, drained server held %d", len(recovered), len(acked))
	}
	return rd.auditPrefix(recovered)
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
