package main

import (
	"slices"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
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
var faultdiskScenario = scenario{
	name: "faultdisk",
	// Sites collectively hit every injection point the wal package threads
	// through fault.FS.
	sites: []faultSite{
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
	},
	modes:         []mode{{"healed", "healed"}, {"hard", "hard"}},
	modeStride:    10, // one pass over the sites per mode
	dmodeStride:   2,
	policyStride:  3,
	shards:        []int{1, 2},
	shardStride:   5,
	dsStride:      7,
	segBytes:      1 << 14,
	groupInterval: 200 * time.Microsecond,
	summary:       []string{"healed", "hard", "open-refused", "ckpt-refused"},
	body:          faultdiskBody,
}

// faultdiskBody runs one load-under-faults → heal? → crash → recover →
// audit cycle.
func faultdiskBody(rd *round) bool {
	inj := fault.NewInjector(fault.OS, rd.seed, rd.site.rules...)
	rd.opts.FS, rd.opts.DegradedMode = inj, rd.dmode
	rd.opts.RetryLimit, rd.opts.RetryBackoffMax = 2, 2*time.Millisecond
	rd.opts.StallTimeout = 25 * time.Millisecond
	clean := rd.opts // the same log on a healthy disk: what every recovery runs on
	clean.FS = fault.OS

	m, l, err := wal.OpenWith(rd.opts)
	if err != nil {
		// Refusing to open on a disk that faults during setup is correct
		// behaviour (nothing was acked), as long as a healthy reopen works.
		rd.counts["open-refused"]++
		if _, err2 := recoverState(clean); err2 != nil {
			return rd.fail("open refused and did not recover cleanly: %v", err)
		}
		return true
	}
	defer l.Close()
	rd.load(l, m)

	// Traffic window with a checkpoint attempt mid-faults: refusal while
	// degraded is correct behaviour; what it must never do is truncate
	// segments it cannot vouch for (recovery below proves that).
	if !rd.window(l, 30*time.Millisecond) {
		rd.counts["ckpt-refused"]++
	}
	rd.quiesce()

	healed := rd.mode.name == "healed"
	var acked []ds.KV
	if healed {
		inj.Heal()
		healBy := time.Now().Add(3 * time.Second)
		for {
			if err := l.Sync(); err == nil {
				break
			} else if !time.Now().Before(healBy) {
				return rd.fail("log never healed after the disk did: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
		acked, _ = ds.ExportSorted(l.System(), m)
	}
	// hard: crash mid-degraded; the unacked tail is legitimately lost, but
	// the recovered state must still linearize against the history.
	l.Crash()
	l.Close()

	if healed && rd.site.name == "recover-read" {
		// Cover the recovery read path: an unreadable file must fail
		// the open cleanly, never be "repaired" away as a torn tail.
		unreadable := clean
		unreadable.FS = fault.NewInjector(fault.OS, rd.seed, fault.Rule{Ops: fault.OpRead})
		if _, err := recoverState(unreadable); err == nil {
			return rd.fail("recovery swallowed a read fault")
		}
	}

	recovered, err := recoverState(clean)
	if err != nil {
		return rd.fail("recovery failed: %v", err)
	}
	if healed && !slices.Equal(recovered, acked) {
		return rd.fail("no-silent-loss violated: recovered %d pairs, acked %d after nil Sync", len(recovered), len(acked))
	}
	return rd.auditPrefix(recovered)
}
