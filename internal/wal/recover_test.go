package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/stm"
	"repro/internal/workload"
)

// TestRecoveryDifferential is the acceptance matrix: for every backend ×
// {1, 4} shards, the replayed state must byte-equal the live oracle — the
// frozen-timestamp checkpoint snapshot plus the logged suffix — and a
// corrupted or torn final segment must recover to the last valid record
// instead of failing or loading garbage.
//
// Structure of one cell:
//
//  1. Concurrent load (4 goroutines), then quiesce and Checkpoint — the
//     on-disk base is a SnapshotAt export at the checkpoint's frozen ts.
//  2. A deterministic single-threaded suffix whose effective ops the test
//     tracks itself (the independent oracle).
//  3. Sync, Crash, reopen: the recovered export must byte-equal (gob) the
//     live pre-crash export.
//  4. Corruption: the suffix-carrying segment of one stream is truncated
//     mid-record / bit-flipped; recovery must yield exactly base + all
//     other streams' suffix ops + some prefix of the corrupted stream's
//     suffix ops (candidate-set check), and a second recovery must
//     reproduce the first (the torn tail was repaired, not just skipped).
func TestRecoveryDifferential(t *testing.T) {
	for _, backend := range walBackends {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", backend, shards), func(t *testing.T) {
				runRecoveryDifferential(t, backend, shards)
			})
		}
	}
}

type suffixOp struct {
	ins      bool
	key, val uint64
	shard    int
}

func runRecoveryDifferential(t *testing.T, backend string, shards int) {
	dir := t.TempDir()
	o := testOpts(dir, backend, shards, func(o *Options) {
		o.SegmentBytes = 1 << 20 // keep the whole suffix in one segment per stream
	})
	m, l := mustOpen(t, o)

	// Phase 1: concurrent load, then quiesce.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := l.System().Register()
			defer th.Unregister()
			r := workload.NewRng(seed)
			for i := 0; i < 300; i++ {
				k := r.Next()%200 + 1
				if r.Intn(3) == 0 {
					ds.Delete(th, m, k)
				} else {
					ds.Insert(th, m, k, r.Next())
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	// Checkpoint at a frozen ts; quiescent, so even the versionless
	// backends serve it first try.
	if _, err := l.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	base := asModel(exportSorted(t, l, m)) // state at the checkpoint ts

	// Phase 2: deterministic suffix, tracked op by effective op.
	var suffix []suffixOp
	th := l.System().Register()
	r := workload.NewRng(1234)
	for i := 0; i < 240; i++ {
		k := r.Next()%200 + 1
		sh := int(stm.Mix64(k) % uint64(shards)) // shard.System.ShardOf
		if r.Intn(3) == 0 {
			if del, ok := ds.Delete(th, m, k); ok && del {
				suffix = append(suffix, suffixOp{false, k, 0, sh})
			}
		} else {
			v := r.Next()
			if ins, ok := ds.Insert(th, m, k, v); ok && ins {
				suffix = append(suffix, suffixOp{true, k, v, sh})
			}
		}
	}
	th.Unregister()
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	live := exportSorted(t, l, m)
	// Cross-check the independent oracle against the live system before
	// it is ever used as a recovery verdict.
	if !pairsEqual(live, modelPairs(applySuffix(base, suffix, shards, -1, len(suffix)))) {
		t.Fatal("oracle bug: base+suffix does not reproduce the live state")
	}
	l.Crash()
	l.Close()

	// 3: clean recovery must byte-equal the live export.
	m2, l2 := mustOpen(t, o)
	if got := exportSorted(t, l2, m2); !bytes.Equal(gobBytes(t, got), gobBytes(t, live)) {
		l2.Close()
		t.Fatalf("recovered state does not byte-equal checkpoint+suffix oracle: %d pairs want %d", len(got), len(live))
	}
	l2.Crash()
	l2.Close()

	// 4: corrupt the stream carrying the most suffix ops.
	target, nTarget := 0, -1
	perStream := make([]int, shards)
	for _, op := range suffix {
		perStream[op.shard]++
	}
	for s, n := range perStream {
		if n > nTarget {
			target, nTarget = s, n
		}
	}
	seg := newestSegment(t, filepath.Join(dir, fmt.Sprintf("shard-%03d", target)))
	for _, mode := range []string{"truncate", "bitflip"} {
		corrupt(t, seg, mode)
		m3, l3 := mustOpen(t, o)
		got := asModel(exportSorted(t, l3, m3))
		l3.Crash()
		l3.Close()
		if j := matchPrefix(base, suffix, shards, target, got); j < 0 {
			t.Fatalf("%s: recovered state is not base + full other streams + any prefix of stream %d's %d suffix ops", mode, target, nTarget)
		}
		// Idempotent re-replay: the torn tail was truncated away, so a
		// second recovery reproduces the first exactly.
		m4, l4 := mustOpen(t, o)
		again := asModel(exportSorted(t, l4, m4))
		l4.Crash()
		l4.Close()
		if !bytes.Equal(gobBytes(t, modelPairs(got)), gobBytes(t, modelPairs(again))) {
			t.Fatalf("%s: re-recovery diverged from first recovery", mode)
		}
		seg = newestSegment(t, filepath.Join(dir, fmt.Sprintf("shard-%03d", target)))
	}
}

// applySuffix replays base + every suffix op, except that ops of stream
// `target` stop after the first j (target < 0: no stream is cut).
func applySuffix(base map[uint64]uint64, suffix []suffixOp, shards, target, j int) map[uint64]uint64 {
	model := make(map[uint64]uint64, len(base))
	for k, v := range base {
		model[k] = v
	}
	seen := 0
	for _, op := range suffix {
		if op.shard == target {
			if seen >= j {
				continue
			}
			seen++
		}
		if op.ins {
			model[op.key] = op.val
		} else {
			delete(model, op.key)
		}
	}
	return model
}

// matchPrefix finds the prefix length j of stream target's suffix ops that
// reproduces got, or -1.
func matchPrefix(base map[uint64]uint64, suffix []suffixOp, shards, target int, got map[uint64]uint64) int {
	n := 0
	for _, op := range suffix {
		if op.shard == target {
			n++
		}
	}
	for j := n; j >= 0; j-- {
		if modelsEqual(applySuffix(base, suffix, shards, target, j), got) {
			return j
		}
	}
	return -1
}

func modelsEqual(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func asModel(pairs []ds.KV) map[uint64]uint64 {
	m := make(map[uint64]uint64, len(pairs))
	for _, kv := range pairs {
		m[kv.Key] = kv.Val
	}
	return m
}

// newestSegment returns the lexicographically last (= newest) segment file.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// corrupt truncates the file mid-record or flips a byte in its back half.
func corrupt(t *testing.T, path, mode string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	switch mode {
	case "truncate":
		cut := size - 13 // lands mid-record (records are 37+ bytes)
		if cut < segHeaderSize {
			cut = segHeaderSize
		}
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
	case "bitflip":
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) <= segHeaderSize {
			return
		}
		at := segHeaderSize + (len(data)-segHeaderSize)*3/4
		data[at] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryAfterFlusherRace reopens under live flusher traffic: Crash
// may race the group flusher mid-buffer, and whatever lands on disk must
// still recover to a consistent per-key state. This is a cheap in-package
// shadow of stmtorture's crash workload.
func TestRecoveryAfterFlusherRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		dir := t.TempDir()
		o := testOpts(dir, "multiverse", 2, func(o *Options) {
			o.GroupInterval = 200 * time.Microsecond
		})
		m, l := mustOpen(t, o)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				th := l.System().Register()
				defer th.Unregister()
				r := workload.NewRng(seed)
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := r.Next()%64 + 1
					if r.Intn(2) == 0 {
						ds.Insert(th, m, k, k*1000+r.Next()%7)
					} else {
						ds.Delete(th, m, k)
					}
				}
			}(uint64(round*10 + w + 1))
		}
		time.Sleep(time.Duration(1+round) * time.Millisecond)
		l.Crash() // mid-traffic
		close(stop)
		wg.Wait()
		l.Close()

		m2, l2 := mustOpen(t, o)
		pairs := exportSorted(t, l2, m2)
		l2.Close()
		for _, kv := range pairs {
			if kv.Key < 1 || kv.Key > 64 || (kv.Val != 0 && kv.Val/1000 != kv.Key && kv.Val%1000 > 6) {
				t.Fatalf("round %d: recovered garbage pair %+v", round, kv)
			}
		}
	}
}
