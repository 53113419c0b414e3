package main

import (
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
type replicaConfig struct {
	tm      string
	threads int
	seed    uint64
	dur     time.Duration
}

// replicaSites are the conn-fault schedules rotated across rounds. Rules are
// Times-bounded so drained rounds can finish: once the schedule is spent the
// redial loop gets a clean session and the transfer completes.
var replicaSites = []faultSite{
	{"clean", nil},
	{"torn-write", []fault.Rule{{Ops: fault.OpWrite, Path: "ship", Kth: 7, Times: 1, Err: fault.EIO, Short: true}}},
	{"write-eio", []fault.Rule{{Ops: fault.OpWrite, Path: "ship", Kth: 11, Times: 2, Err: fault.EIO}}},
	{"read-eio", []fault.Rule{{Ops: fault.OpRead, Path: "ship", Kth: 5, Times: 1, Err: fault.EIO}}},
	{"latency", []fault.Rule{{Ops: fault.OpRead | fault.OpWrite, Path: "ship", Delay: 200 * time.Microsecond}}},
}

func replicaTorture(c replicaConfig) bool {
	if notDurable("replica", c.tm) {
		return true
	}
	deadline := time.Now().Add(c.dur)
	rounds, drained, severed := 0, 0, 0
	for time.Now().Before(deadline) {
		site := replicaSites[rounds%len(replicaSites)]
		mode := [2]string{"drained", "sever"}[(rounds/2)%2]
		shards := []int{1, 2}[(rounds/3)%2]
		dsName := []string{"hashmap", "abtree"}[(rounds/5)%2]
		seed := c.seed + uint64(rounds)*0x9e3779b97f4a7c15
		if !replicaRound(c, site, mode, shards, dsName, seed, rounds) {
			fmt.Printf("replica  tm=%-12s VIOLATION round=%d site=%s mode=%s shards=%d ds=%s round-seed=%d (base seed %d)\n",
				c.tm, rounds, site.name, mode, shards, dsName, seed, c.seed)
			fmt.Printf("  reproduce (reaches round %d deterministically): go run ./cmd/stmtorture -workload replica -tm %s -threads %d -seed %d -dur 10m\n",
				rounds, c.tm, c.threads, c.seed)
			return false
		}
		if mode == "drained" {
			drained++
		} else {
			severed++
		}
		rounds++
	}
	fmt.Printf("replica  tm=%-12s rounds=%-5d drained=%-4d severed=%-4d violations=0\n",
		c.tm, rounds, drained, severed)
	return true
}

// shipFeed mirrors leaderDir into followerDir over loopback TCP, wrapping
// the shipper's side of every session in inj (nil = clean). A session dies
// on any injected fault — torn frames kill it by CRC-framing design — and
// the loop redials; the manifest resync completes the transfer. Close stop
// to sever; the returned WaitGroup drains when the feed has fully exited.
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
			if inj != nil {
				sc = inj.Conn(sc, "ship")
			}
			sh := replica.NewShipper(sc, leaderDir, replica.ShipperOptions{Interval: 200 * time.Microsecond})
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

// replicaRound runs one load → ship-under-faults → (drain|sever) → promote →
// audit cycle and reports whether every audit held.
func replicaRound(c replicaConfig, site faultSite, mode string, shards int, dsName string, seed uint64, round int) bool {
	leaderDir, err := os.MkdirTemp("", "stmtorture-replica-l-*")
	if err != nil {
		fmt.Printf("  replica round %d: tempdir: %v\n", round, err)
		return false
	}
	defer os.RemoveAll(leaderDir)
	followerDir, err := os.MkdirTemp("", "stmtorture-replica-f-*")
	if err != nil {
		fmt.Printf("  replica round %d: tempdir: %v\n", round, err)
		return false
	}
	defer os.RemoveAll(followerDir)

	m, l, err := wal.OpenWith(wal.Options{
		Dir: leaderDir, Backend: c.tm, Shards: shards, DS: dsName,
		Capacity: 1 << 12, LockTable: 1 << 14,
		SegmentBytes: 1 << 13, Policy: wal.SyncGroup,
		GroupInterval: 200 * time.Microsecond,
		Rec:           torRec,
	})
	if err != nil {
		fmt.Printf("  replica round %d: open leader: %v\n", round, err)
		return false
	}

	var inj *fault.Injector
	if site.rules != nil {
		inj = fault.NewInjector(fault.OS, seed, site.rules...)
	}
	stopShip := make(chan struct{})
	feed := shipFeed(leaderDir, followerDir, inj, stopShip)

	hist := histcheck.NewHistory(c.threads, crashSlabCap)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < c.threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			crashWorker(l, m, hist.Recorder(w), &stop, seed^uint64(w+1)*0xbf58476d1ce4e5b9)
		}(w)
	}

	// Traffic window with a mid-window checkpoint: truncation must race the
	// shipper's directory scans without ever shipping a gap.
	time.Sleep(25 * time.Millisecond)
	_, _ = l.Checkpoint()
	time.Sleep(25 * time.Millisecond)
	if mode == "sever" {
		close(stopShip)
		feed.Wait()
	}
	stop.Store(true)
	wg.Wait()
	if err := l.Sync(); err != nil {
		fmt.Printf("  replica round %d: leader Sync on a healthy disk: %v\n", round, err)
		l.Close()
		if mode != "sever" {
			close(stopShip)
			feed.Wait()
		}
		return false
	}
	acked, _ := ds.ExportSorted(l.System(), m)

	if mode == "drained" {
		// The channel keeps running against the quiesced leader: the follower
		// must converge on exactly the acked state.
		r, err := replica.Open(replica.Options{Dir: followerDir, Backend: c.tm, DS: dsName})
		if err != nil {
			fmt.Printf("  replica round %d: open follower: %v\n", round, err)
			close(stopShip)
			feed.Wait()
			l.Close()
			return false
		}
		converged := false
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			// A starved scan (ok=false) is not a verdict; the loop retries.
			if got, ok := ds.ExportSorted(r.System(), r.Map()); ok && slices.Equal(got, acked) {
				converged = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(stopShip)
		feed.Wait()
		l.Crash()
		l.Close()
		if !converged {
			fmt.Printf("  replica round %d: follower never converged on the acked state (%d pairs, replica %+v, err %v)\n",
				round, len(acked), r.Stats(), r.Err())
			r.Close()
			return false
		}
		pm, pl, err := r.Promote()
		if err != nil {
			fmt.Printf("  replica round %d: promote over drained copy: %v\n", round, err)
			return false
		}
		promoted, _ := ds.ExportSorted(pl.System(), pm)
		if !slices.Equal(promoted, acked) {
			fmt.Printf("  log-shipping no-silent-loss violated: promoted %d pairs, leader acked %d\n",
				len(promoted), len(acked))
			pl.Close()
			return false
		}
		ok := auditPrefixConsistent(hist, promoted, round) && promotedAcceptsWrites(pl, pm, round)
		pl.Close()
		return ok
	}

	// sever: the leader dies too; promote from the half-shipped copy. Torn
	// tails are repaired, the unshipped suffix is legitimately lost, but the
	// promoted state must be a prefix-consistent cut of the history.
	l.Crash()
	l.Close()
	r, err := replica.Open(replica.Options{Dir: followerDir, Backend: c.tm, DS: dsName})
	if err != nil {
		fmt.Printf("  replica round %d: open follower over severed copy: %v\n", round, err)
		return false
	}
	pm, pl, err := r.Promote()
	if err != nil {
		fmt.Printf("  replica round %d: promote over severed copy: %v\n", round, err)
		return false
	}
	promoted, _ := ds.ExportSorted(pl.System(), pm)
	ok := auditPrefixConsistent(hist, promoted, round) && promotedAcceptsWrites(pl, pm, round)
	pl.Close()
	return ok
}

// promotedAcceptsWrites proves the promoted log is live: a fresh key (above
// the workload range, so the audits above are untouched) must insert and
// survive a Sync barrier.
func promotedAcceptsWrites(pl *wal.Log, pm ds.Map, round int) bool {
	th := pl.System().Register()
	ins, ok := ds.Insert(th, pm, 1<<40, 1)
	th.Unregister()
	if !ok || !ins {
		fmt.Printf("  replica round %d: promoted leader refused a write (ins=%v ok=%v)\n", round, ins, ok)
		return false
	}
	if err := pl.Sync(); err != nil {
		fmt.Printf("  replica round %d: promoted leader Sync: %v\n", round, err)
		return false
	}
	return true
}
