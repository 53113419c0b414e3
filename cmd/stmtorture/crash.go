package main

import (
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/histcheck"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The crash workload tortures the persistence subsystem (internal/wal):
// duration-bounded rounds that run point-op load over a WAL-backed map,
// hard-stop mid-traffic — severing the log exactly as a process death
// would, sometimes also tearing the active segment — abandon the live
// System, recover from disk into a fresh one, and audit the recovered
// state.
//
// Two audits alternate:
//
//   - synced rounds quiesce, Sync, and export before the crash: recovery
//     must reproduce that export exactly (zero loss past a barrier).
//   - hard/torn rounds crash mid-traffic: the recorded operation history
//     plus one synthetic whole-window Search observation per key of the
//     recovered state is handed to the partitioned history checker — the
//     recovered value of every key must have been that key's live value at
//     some legal linearization point, i.e. the recovered state is a
//     prefix-consistent cut, never an invented or resurrected value.
//     (Cross-key single-instant consistency follows from per-stream prefix
//     replay and shard key-disjointness; the per-key audit is what the
//     checker can decide exactly.)
var crashScenario = scenario{
	name: "crash",
	// Decorrelated rotations: mode, shard count and fsync policy cycle at
	// different strides, so 27 rounds cover the full cross product.
	modes:         []mode{{"synced", "synced"}, {"hard", "hist-audited"}, {"torn", "hist-audited"}},
	modeStride:    1,
	shards:        []int{1, 2, 4},
	shardStride:   3,
	policyStride:  9,
	dsStride:      2,
	segBytes:      1 << 18,
	groupInterval: 300 * time.Microsecond,
	summary:       []string{"synced", "hist-audited", "ckpt-starved"},
	body:          crashBody,
}

const (
	crashKeyRange = 48
	crashSlabCap  = 30000 // per-thread op budget per round
)

// crashBody runs one load → crash → recover → audit cycle.
func crashBody(rd *round) bool {
	m, l, err := wal.OpenWith(rd.opts)
	if err != nil {
		return rd.fail("open: %v", err)
	}
	defer l.Close()
	rd.load(l, m)

	// Traffic window with an online checkpoint in the middle (versionless
	// backends may starve it under churn; that is an answer, not a bug).
	if !rd.window(l, 40*time.Millisecond) {
		rd.counts["ckpt-starved"]++
	}

	var syncedWant []ds.KV
	if rd.mode.name == "synced" {
		rd.quiesce()
		if err := l.Sync(); err != nil {
			return rd.fail("sync: %v", err)
		}
		syncedWant, _ = ds.ExportSorted(l.System(), m)
		l.Crash()
	} else { // hard, torn: sever mid-traffic, then abandon the live system
		l.Crash()
		rd.quiesce()
	}
	l.Close()

	if rd.mode.name == "torn" {
		tearNewestSegment(rd.opts.Dir, rd.seed)
	}

	recovered, err := recoverState(rd.opts)
	if err != nil {
		return rd.fail("recovery failed: %v", err)
	}
	if rd.mode.name != "synced" {
		return rd.auditPrefix(recovered)
	}
	if !slices.Equal(recovered, syncedWant) {
		return rd.fail("synced crash lost or invented data: recovered %d pairs want %d", len(recovered), len(syncedWant))
	}
	return true
}

func crashWorker(l *wal.Log, m ds.Map, rec *histcheck.Recorder, stop *atomic.Bool, seed uint64) {
	th := l.System().Register()
	defer th.Unregister()
	r := workload.NewRng(seed)
	for i := 0; i < crashSlabCap; i++ {
		if stop.Load() {
			return
		}
		key := r.Next()%crashKeyRange + 1
		switch r.Intn(5) {
		case 0, 1:
			val := r.Next()
			tok := rec.Invoke(histcheck.Insert, key, val)
			ins, ok := ds.Insert(th, m, key, val)
			if !ok {
				rec.Discard(tok)
				continue
			}
			rec.Return(tok, ins, 0, 0, 0)
		case 2, 3:
			tok := rec.Invoke(histcheck.Delete, key, 0)
			del, ok := ds.Delete(th, m, key)
			if !ok {
				rec.Discard(tok)
				continue
			}
			rec.Return(tok, del, 0, 0, 0)
		default:
			tok := rec.Invoke(histcheck.Search, key, 0)
			v, found, ok := ds.Search(th, m, key)
			if !ok {
				rec.Discard(tok)
				continue
			}
			rec.Return(tok, found, v, 0, 0)
		}
	}
}

// tearNewestSegment truncates a random trailing chunk off the newest
// segment of a random shard stream — the on-disk shape of a crash that
// tore a partially flushed record.
func tearNewestSegment(dir string, seed uint64) {
	r := workload.NewRng(seed ^ 0xdeadbeef)
	ls, _ := wal.ListDir(fault.OS, dir)
	if len(ls.Shards) == 0 {
		return
	}
	sd := ls.Shards[r.Intn(len(ls.Shards))]
	if len(sd.Segs) == 0 {
		return
	}
	path := filepath.Join(dir, sd.Name, sd.Segs[len(sd.Segs)-1])
	fi, err := os.Stat(path)
	if err != nil || fi.Size() <= 16 {
		return
	}
	cut := fi.Size() - int64(r.Intn(64)+1)
	if cut < 16 {
		cut = 16
	}
	os.Truncate(path, cut)
}
