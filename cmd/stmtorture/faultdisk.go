package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/histcheck"
	"repro/internal/wal"
)

// The faultdisk workload tortures the WAL's failure plane: every round runs
// point-op load over a WAL-backed map while a seeded fault.Injector fails
// disk I/O underneath it — EIO on the k-th write, ENOSPC past a byte
// budget, one-shot and sticky fsync failures, short (torn) writes, open
// faults at rotation, checkpoint-image faults, injected latency — then
// heals the disk, syncs, crashes, recovers, and audits.
//
// Two audits alternate:
//
//   - healed rounds quiesce, heal the injector, and retry Sync until it
//     returns nil (a log that cannot heal after its disk does is itself a
//     violation). The export taken after that nil Sync is the acked state;
//     recovery must reproduce it *exactly* — the no-silent-loss invariant.
//     The recorded history plus the recovered state also goes through the
//     partitioned prefix-consistency audit.
//   - hard rounds crash mid-degraded, without heal or sync: whatever the
//     faults kept off the disk is legitimately lost, but the recovered
//     state must still be a prefix-consistent cut of the recorded history
//     (never an invented, resurrected, or reordered value).
//
// Rounds also rotate degraded mode (stall, reject), fsync policy, shard
// count and data structure at decorrelated strides, so a long run covers
// the full cross product of fault schedule × failure policy.
type faultdiskConfig struct {
	tm      string
	threads int
	seed    uint64
	dur     time.Duration
}

// faultSite is one named fault schedule. Sites collectively hit every
// injection point the wal package threads through fault.FS.
type faultSite struct {
	name  string
	rules []fault.Rule
}

var faultSites = []faultSite{
	{"write-eio-once", []fault.Rule{{Ops: fault.OpWrite, Path: "wal-", Kth: 5, Times: 1}}},
	{"write-eio-sticky", []fault.Rule{{Ops: fault.OpWrite, Path: "wal-", Kth: 8}}},
	{"enospc", []fault.Rule{{Ops: fault.OpWrite, Path: "wal-", AfterBytes: 1 << 14, Err: fault.ENOSPC}}},
	{"short-write", []fault.Rule{{Ops: fault.OpWrite, Path: "wal-", Kth: 6, Times: 2, Short: true}}},
	{"fsync-once", []fault.Rule{{Ops: fault.OpSync, Path: "wal-", Kth: 2, Times: 1}}},
	{"fsync-sticky", []fault.Rule{{Ops: fault.OpSync, Path: "wal-", Kth: 3}}},
	{"open-rotate", []fault.Rule{{Ops: fault.OpOpen, Path: "wal-", Kth: 3, Times: 2}}},
	{"ckpt-image", []fault.Rule{{Ops: fault.OpWrite | fault.OpSync | fault.OpRename, Path: ".ckpt"}}},
	{"latency", []fault.Rule{{Ops: fault.OpWrite | fault.OpSync, Path: "wal-", Delay: 300 * time.Microsecond}}},
	{"recover-read", nil}, // faultless run; the read fault hits at recovery
}

func faultdiskTorture(c faultdiskConfig) bool {
	if notDurable("faultdisk", c.tm) {
		return true
	}
	deadline := time.Now().Add(c.dur)
	rounds, healed, hard, openRefused, ckptErrs := 0, 0, 0, 0, 0
	for time.Now().Before(deadline) {
		site := faultSites[rounds%len(faultSites)]
		mode := [2]string{"healed", "hard"}[(rounds/len(faultSites))%2]
		dmode := []wal.DegradedMode{wal.DegradeStall, wal.DegradeReject}[(rounds/2)%2]
		policy := []wal.SyncPolicy{wal.SyncGroup, wal.SyncEveryCommit, wal.SyncNone}[(rounds/3)%3]
		shards := []int{1, 2}[(rounds/5)%2]
		dsName := []string{"hashmap", "abtree"}[(rounds/7)%2]
		seed := c.seed + uint64(rounds)*0x9e3779b97f4a7c15
		ok, refused, ckErr := faultdiskRound(c, site, mode, dmode, policy, shards, dsName, seed, rounds)
		if refused {
			openRefused++
		}
		if ckErr {
			ckptErrs++
		}
		if !ok {
			fmt.Printf("faultdisk tm=%-12s VIOLATION round=%d site=%s mode=%s degraded=%s policy=%s shards=%d ds=%s round-seed=%d (base seed %d)\n",
				c.tm, rounds, site.name, mode, dmode, policy, shards, dsName, seed, c.seed)
			fmt.Printf("  reproduce (reaches round %d deterministically): go run ./cmd/stmtorture -workload faultdisk -tm %s -threads %d -seed %d -dur 10m\n",
				rounds, c.tm, c.threads, c.seed)
			return false
		}
		if mode == "healed" {
			healed++
		} else {
			hard++
		}
		rounds++
	}
	fmt.Printf("faultdisk tm=%-12s rounds=%-5d healed=%-4d hard=%-4d open-refused=%-3d ckpt-refused=%-3d violations=0\n",
		c.tm, rounds, healed, hard, openRefused, ckptErrs)
	return true
}

// faultdiskRound runs one load-under-faults → heal? → crash → recover →
// audit cycle. It reports (audit ok, open cleanly refused, checkpoint
// refused/failed).
func faultdiskRound(c faultdiskConfig, site faultSite, mode string, dmode wal.DegradedMode,
	policy wal.SyncPolicy, shards int, dsName string, seed uint64, round int) (bool, bool, bool) {
	dir, err := os.MkdirTemp("", "stmtorture-faultdisk-*")
	if err != nil {
		fmt.Printf("  faultdisk round %d: tempdir: %v\n", round, err)
		return false, false, false
	}
	defer os.RemoveAll(dir)

	inj := fault.NewInjector(fault.OS, seed, site.rules...)
	opts := wal.Options{
		Dir: dir, Backend: c.tm, Shards: shards, DS: dsName,
		Capacity: 1 << 12, LockTable: 1 << 14,
		SegmentBytes: 1 << 14, Policy: policy,
		GroupInterval: 200 * time.Microsecond,
		FS:            inj, DegradedMode: dmode,
		RetryLimit: 2, RetryBackoffMax: 2 * time.Millisecond,
		StallTimeout: 25 * time.Millisecond,
		Rec:          torRec,
	}
	m, l, err := wal.OpenWith(opts)
	if err != nil {
		// Refusing to open on a disk that faults during setup is correct
		// behaviour (nothing was acked), as long as a healthy reopen works.
		inj.Heal()
		clean := opts
		clean.FS = fault.OS
		if m2, l2, err2 := wal.OpenWith(clean); err2 == nil {
			l2.Crash()
			l2.Close()
			_ = m2
			return true, true, false
		}
		fmt.Printf("  faultdisk round %d: open refused and did not recover cleanly: %v\n", round, err)
		return false, true, false
	}

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

	// Traffic window with a checkpoint attempt mid-faults: refusal while
	// degraded is correct behaviour; what it must never do is truncate
	// segments it cannot vouch for (recovery below proves that).
	ckptRefused := false
	time.Sleep(30 * time.Millisecond)
	if _, err := l.Checkpoint(); err != nil {
		ckptRefused = true
	}
	time.Sleep(30 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	cleanOpts := opts
	cleanOpts.FS = fault.OS

	if mode == "healed" {
		inj.Heal()
		healBy := time.Now().Add(3 * time.Second)
		for {
			if err := l.Sync(); err == nil {
				break
			} else if !time.Now().Before(healBy) {
				fmt.Printf("  faultdisk round %d: log never healed after the disk did: %v\n", round, err)
				l.Close()
				return false, false, ckptRefused
			}
			time.Sleep(time.Millisecond)
		}
		acked, _ := ds.ExportSorted(l.System(), m)
		l.Crash()
		l.Close()

		if site.name == "recover-read" {
			// Cover the recovery read path: an unreadable file must fail
			// the open cleanly, never be "repaired" away as a torn tail.
			rdInj := fault.NewInjector(fault.OS, seed, fault.Rule{Ops: fault.OpRead})
			rdOpts := cleanOpts
			rdOpts.FS = rdInj
			if _, _, err := wal.OpenWith(rdOpts); err == nil {
				fmt.Printf("  faultdisk round %d: recovery swallowed a read fault\n", round)
				return false, false, ckptRefused
			}
		}

		m2, l2, err := wal.OpenWith(cleanOpts)
		if err != nil {
			fmt.Printf("  faultdisk round %d: recovery failed: %v\n", round, err)
			return false, false, ckptRefused
		}
		recovered, _ := ds.ExportSorted(l2.System(), m2)
		l2.Crash()
		l2.Close()
		if !slices.Equal(recovered, acked) {
			fmt.Printf("  no-silent-loss violated: recovered %d pairs, acked %d after nil Sync\n",
				len(recovered), len(acked))
			return false, false, ckptRefused
		}
		return auditPrefixConsistent(hist, recovered, round), false, ckptRefused
	}

	// hard: crash mid-degraded; the unacked tail is legitimately lost, but
	// the recovered state must still linearize against the history.
	l.Crash()
	l.Close()
	m2, l2, err := wal.OpenWith(cleanOpts)
	if err != nil {
		fmt.Printf("  faultdisk round %d: recovery failed: %v\n", round, err)
		return false, false, ckptRefused
	}
	recovered, _ := ds.ExportSorted(l2.System(), m2)
	l2.Crash()
	l2.Close()
	return auditPrefixConsistent(hist, recovered, round), false, ckptRefused
}
