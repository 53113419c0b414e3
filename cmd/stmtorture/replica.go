package main

import (
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/wal"
)

// The replica workload tortures log shipping end to end: every round runs
// point-op load over a WAL-backed leader while a Shipper→TCP→Receiver
// channel mirrors the leader's directory into a follower copy, a seeded
// fault.Injector tearing and severing the shipping connection underneath
// (torn frames kill the session by design; a redial loop resyncs from the
// manifest). A Checkpoint fires mid-window so truncation races the tail.
//
// Two audits alternate:
//
//   - drained rounds quiesce the leader, Sync, and export the acked state;
//     a replica over the shipped copy must converge on *exactly* that state
//     (the log-shipping no-silent-loss invariant), and promoting it must
//     recover the same image and accept new writes.
//   - sever rounds kill the channel mid-transfer and promote the follower
//     from whatever half-shipped copy it holds: recovery must repair torn
//     tails into a prefix-consistent cut of the recorded history — never an
//     invented, resurrected, or reordered value — and accept new writes.
var replicaScenario = scenario{
	name: "replica",
	// One injector per round carries both seams: the shipping connection
	// (Path "ship") and the follower's tail reads (its Options.FS). Rules are
	// Times-bounded so drained rounds can finish: once the schedule is spent
	// the redial loop gets a clean session and the transfer completes.
	sites: []faultSite{
		{"clean", nil},
		{"torn-write", []fault.Rule{{Ops: fault.OpWrite, Path: "ship", Kth: 7, Times: 1, Err: fault.EIO, Short: true}}},
		{"write-eio", []fault.Rule{{Ops: fault.OpWrite, Path: "ship", Kth: 11, Times: 2, Err: fault.EIO}}},
		// A Shipper reads one thing, the follower's hello, in three Reads
		// (frame header in two, payload): the fault lands inside the first
		// session's, which dies before it has shipped a byte.
		{"read-eio", []fault.Rule{{Ops: fault.OpRead, Path: "ship", Kth: 2, Times: 1, Err: fault.EIO}}},
		{"latency", []fault.Rule{{Ops: fault.OpRead | fault.OpWrite, Path: "ship", Delay: 200 * time.Microsecond}}},
		// The follower opens on a quiesced leader, so its first tailing poll
		// has collected all of shard 0 when shard 1's first read fails: a
		// tail that drops what the failed poll held never converges. (The
		// strides put every tail-read round on two shards.)
		{"tail-read", []fault.Rule{{Ops: fault.OpRead, Path: wal.ShardDirName(1), Times: 1}}},
	},
	modes:         []mode{{"drained", "drained"}, {"sever", "severed"}},
	modeStride:    2,
	shards:        []int{1, 2},
	shardStride:   3,
	dsStride:      5,
	segBytes:      1 << 13,
	groupInterval: 200 * time.Microsecond,
	summary:       []string{"drained", "severed"},
	body:          replicaBody,
}

// shipFeed mirrors leaderDir into followerDir over loopback TCP, wrapping
// the shipper's side of every session in inj as "ship". A session dies
// on any injected fault — torn frames kill it by CRC-framing design — and
// the loop redials; the manifest resync completes the transfer. Close stop
// to sever; the returned WaitGroup drains when the feed has fully exited.
//
// This is the one redial loop outside internal/replica, whose own
// (replica.Options.Leader) dials a listener and sees only the receiving end:
// the schedule here tears the sending end, so the harness makes both ends of
// every session itself and opens the follower over the directory they fill.
func shipFeed(leaderDir, followerDir string, inj *fault.Injector, stop chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return
			}
			acc := make(chan net.Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err == nil {
					acc <- c
				}
				ln.Close()
			}()
			cc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				ln.Close()
				continue
			}
			sc := <-acc
			sh := replica.NewShipper(inj.Conn(sc, "ship"), leaderDir, replica.ShipperOptions{Interval: 200 * time.Microsecond})
			rc := replica.NewReceiver(cc, followerDir)
			var sess sync.WaitGroup
			sess.Add(2)
			go func() { defer sess.Done(); _ = sh.Run() }()
			go func() { defer sess.Done(); _ = rc.Run() }()
			sessDone := make(chan struct{})
			go func() { sess.Wait(); close(sessDone) }()
			select {
			case <-stop:
				sh.Stop()
				rc.Stop()
				<-sessDone
				return
			case <-sessDone:
				sh.Stop()
				rc.Stop()
			}
		}
	}()
	return &wg
}

// replicaBody runs one load → ship-under-faults → (drain|sever) → promote →
// audit cycle.
func replicaBody(rd *round) bool {
	followerDir := rd.tempdir()
	if followerDir == "" {
		return false
	}
	m, l, err := wal.OpenWith(rd.opts)
	if err != nil {
		return rd.fail("open leader: %v", err)
	}
	defer l.Close()

	inj := fault.NewInjector(fault.OS, rd.seed, rd.site.rules...)
	stopShip := make(chan struct{})
	feed := shipFeed(rd.opts.Dir, followerDir, inj, stopShip)
	sever := sync.OnceFunc(func() { close(stopShip); feed.Wait() })
	defer sever()
	rd.load(l, m)

	// Traffic window with a mid-window checkpoint: truncation must race the
	// shipper's directory scans without ever shipping a gap.
	rd.window(l, 25*time.Millisecond)
	drained := rd.mode.name == "drained"
	if !drained {
		sever()
	}
	rd.quiesce()
	if err := l.Sync(); err != nil {
		return rd.fail("leader Sync on a healthy disk: %v", err)
	}
	acked, _ := ds.ExportSorted(l.System(), m)
	if !drained {
		// sever: the leader dies too; promote from the half-shipped copy.
		// Torn tails are repaired, the unshipped suffix is legitimately
		// lost, but the promoted state must be a prefix-consistent cut of
		// the history.
		l.Crash()
		l.Close()
	}

	r, err := replica.Open(replica.Options{Dir: followerDir, Backend: rd.tm, DS: rd.ds, FS: inj})
	if err != nil {
		return rd.fail("open follower over %s copy: %v", rd.mode.name, err)
	}
	if drained {
		// The channel keeps running against the quiesced leader: the follower
		// must converge on exactly the acked state.
		converged := false
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			// A starved scan (ok=false) is not a verdict; the loop retries.
			if got, ok := ds.ExportSorted(r.System(), r.Map()); ok && slices.Equal(got, acked) {
				converged = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		sever()
		l.Crash()
		l.Close()
		if !converged {
			defer r.Close()
			return rd.fail("follower never converged on the acked state (%d pairs, replica %+v, err %v)", len(acked), r.Stats(), r.Err())
		}
	}
	// Promote recovers through the follower's FS, where a read fault is a
	// hard open failure by design: the schedule is for the tail only.
	inj.Heal()
	pm, pl, err := r.Promote()
	if err != nil {
		return rd.fail("promote over %s copy: %v", rd.mode.name, err)
	}
	defer pl.Close()
	promoted, _ := ds.ExportSorted(pl.System(), pm)
	if drained && !slices.Equal(promoted, acked) {
		return rd.fail("log-shipping no-silent-loss violated: promoted %d pairs, leader acked %d", len(promoted), len(acked))
	}
	return rd.auditPrefix(promoted) && promotedAcceptsWrites(rd, pl, pm)
}

// promotedAcceptsWrites proves the promoted log is live: a fresh key (above
// the workload range, so the audits above are untouched) must insert and
// survive a Sync barrier.
func promotedAcceptsWrites(rd *round, pl *wal.Log, pm ds.Map) bool {
	th := pl.System().Register()
	ins, ok := ds.Insert(th, pm, 1<<40, 1)
	th.Unregister()
	if !ok || !ins {
		return rd.fail("promoted leader refused a write (ins=%v ok=%v)", ins, ok)
	}
	if err := pl.Sync(); err != nil {
		return rd.fail("promoted leader Sync: %v", err)
	}
	return true
}
