package wal

import (
	"bytes"
	"encoding/gob"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/stm"
	"repro/internal/workload"
)

// testOpts builds small-scale options for a test directory.
func testOpts(dir, backend string, shards int, mod func(*Options)) Options {
	o := Options{
		Dir:           dir,
		Backend:       backend,
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

func mustOpen(t *testing.T, o Options) (ds.Map, *Log) {
	t.Helper()
	m, l, err := OpenWith(o)
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	return m, l
}

// exportSorted snapshots the whole map, sorted by key (the sharded map is
// unordered across shards).
func exportSorted(t *testing.T, l *Log, m ds.Map) []ds.KV {
	t.Helper()
	th := l.System().Register()
	defer th.Unregister()
	pairs, ok := ds.Export(th, m.(ds.Visitor), 1, ^uint64(0))
	if !ok {
		t.Fatal("export starved")
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	return pairs
}

func modelPairs(model map[uint64]uint64) []ds.KV {
	pairs := make([]ds.KV, 0, len(model))
	for k, v := range model {
		pairs = append(pairs, ds.KV{Key: k, Val: v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	return pairs
}

func gobBytes(t *testing.T, pairs []ds.KV) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pairs); err != nil {
		t.Fatalf("gob: %v", err)
	}
	return buf.Bytes()
}

func pairsEqual(a, b []ds.KV) bool {
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

var walBackends = []string{"multiverse", "tl2", "dctl"}

// TestRoundTripAcrossRestart: synced state must survive a crash exactly,
// for every backend × shard count, across two generations of restarts.
func TestRoundTripAcrossRestart(t *testing.T) {
	for _, backend := range walBackends {
		for _, shards := range []int{1, 4} {
			t.Run(backend+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				dir := t.TempDir()
				model := map[uint64]uint64{}
				r := workload.NewRng(7)

				mutate := func(m ds.Map, l *Log, n int) {
					th := l.System().Register()
					defer th.Unregister()
					for i := 0; i < n; i++ {
						k := r.Next()%400 + 1
						if r.Intn(3) == 0 {
							if del, ok := ds.Delete(th, m, k); ok && del {
								delete(model, k)
							}
						} else {
							v := r.Next()
							if ins, ok := ds.Insert(th, m, k, v); ok && ins {
								model[k] = v
							}
						}
					}
				}

				for gen := 0; gen < 2; gen++ {
					m, l := mustOpen(t, testOpts(dir, backend, shards, nil))
					got := exportSorted(t, l, m)
					want := modelPairs(model)
					if !pairsEqual(got, want) {
						t.Fatalf("gen %d: recovered %d pairs, want %d (state diverged)", gen, len(got), len(want))
					}
					mutate(m, l, 500)
					if err := l.Sync(); err != nil {
						t.Fatalf("sync: %v", err)
					}
					l.Crash()
					if err := l.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
				}
				// Final verification generation.
				m, l := mustOpen(t, testOpts(dir, backend, shards, nil))
				defer l.Close()
				if got, want := exportSorted(t, l, m), modelPairs(model); !pairsEqual(got, want) {
					t.Fatalf("final recovery diverged: %d pairs want %d", len(got), len(want))
				}
			})
		}
	}
}

// TestEveryCommitLosesNothing: under SyncEveryCommit a crash without any
// Sync barrier still recovers every acknowledged commit.
func TestEveryCommitLosesNothing(t *testing.T) {
	dir := t.TempDir()
	o := testOpts(dir, "multiverse", 2, func(o *Options) { o.Policy = SyncEveryCommit })
	m, l := mustOpen(t, o)
	model := map[uint64]uint64{}
	th := l.System().Register()
	for i := uint64(1); i <= 300; i++ {
		if ins, ok := ds.Insert(th, m, i, i*3); ok && ins {
			model[i] = i * 3
		}
	}
	th.Unregister()
	l.Crash() // no Sync: every-commit must already have persisted everything
	l.Close()

	m2, l2 := mustOpen(t, o)
	defer l2.Close()
	if got, want := exportSorted(t, l2, m2), modelPairs(model); !pairsEqual(got, want) {
		t.Fatalf("every-commit crash lost data: %d pairs want %d", len(got), len(want))
	}
}

// TestCrashRecoversToPrefix: a group-committed crash without a barrier must
// recover to state S_j for some prefix j of the effective-op sequence —
// never a state that interleaves or invents operations.
func TestCrashRecoversToPrefix(t *testing.T) {
	dir := t.TempDir()
	o := testOpts(dir, "multiverse", 1, func(o *Options) { o.GroupInterval = 10 * time.Millisecond })
	m, l := mustOpen(t, o)

	type eff struct {
		ins      bool
		key, val uint64
	}
	var effs []eff
	th := l.System().Register()
	r := workload.NewRng(99)
	for i := 0; i < 400; i++ {
		k := r.Next()%64 + 1
		if r.Intn(3) == 0 {
			if del, ok := ds.Delete(th, m, k); ok && del {
				effs = append(effs, eff{false, k, 0})
			}
		} else {
			v := r.Next()
			if ins, ok := ds.Insert(th, m, k, v); ok && ins {
				effs = append(effs, eff{true, k, v})
			}
		}
	}
	th.Unregister()
	l.Crash() // mid-flight: the group buffer's tail is lost
	l.Close()

	candidates := make(map[string]int)
	model := map[uint64]uint64{}
	candidates[string(gobBytes(t, modelPairs(model)))] = 0
	for j, e := range effs {
		if e.ins {
			model[e.key] = e.val
		} else {
			delete(model, e.key)
		}
		candidates[string(gobBytes(t, modelPairs(model)))] = j + 1
	}

	m2, l2 := mustOpen(t, o)
	defer l2.Close()
	got := string(gobBytes(t, exportSorted(t, l2, m2)))
	if _, ok := candidates[got]; !ok {
		t.Fatalf("recovered state is not any prefix S_0..S_%d of the effective-op sequence", len(effs))
	}
}

// TestCheckpointTruncatesAndRecovers: checkpoints must shrink the log (old
// segments deleted) without changing what recovery rebuilds, with deletions
// in between — and each one leaves itself as the directory's only checkpoint.
func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	o := testOpts(dir, "multiverse", 2, func(o *Options) {
		o.SegmentBytes = 2048 // force rotation so truncation has targets
	})
	m, l := mustOpen(t, o)
	model := map[uint64]uint64{}
	th := l.System().Register()
	r := workload.NewRng(5)
	var truncated int
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			k := r.Next()%300 + 1
			if r.Intn(4) == 0 {
				if del, ok := ds.Delete(th, m, k); ok && del {
					delete(model, k)
				}
			} else {
				v := r.Next()
				if ins, ok := ds.Insert(th, m, k, v); ok && ins {
					model[k] = v
				}
			}
		}
		info, err := l.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint %d: %v", round, err)
		}
		if info.Live != len(model) {
			t.Fatalf("checkpoint %d: live=%d want %d", round, info.Live, len(model))
		}
		if ls, err := ListDir(fault.OS, dir); err != nil || len(ls.Ckpts) != 1 || ls.Ckpts[0] != CkptName(info.Ts) {
			t.Fatalf("checkpoint %d at ts %#x left %v listed (%v), want itself alone", round, info.Ts, ls.Ckpts, err)
		}
		truncated += info.TruncatedSegs
	}
	if truncated == 0 {
		t.Fatal("five checkpoints over rotated segments truncated nothing")
	}
	th.Unregister()
	l.Crash() // checkpoints + group-flushed suffix; no final Sync
	l.Close()

	m2, l2 := mustOpen(t, o)
	defer l2.Close()
	st := l2.Stats()
	if st.RecoveredTs == 0 {
		t.Fatal("recovery ignored the checkpoints")
	}
	// The model may be ahead of the recovered state by the lost group
	// buffer tail, but everything up to the last checkpoint (a Sync-free
	// barrier is not part of Checkpoint's contract for the suffix) must be
	// there: verify against a fresh synced generation instead.
	mutateAndVerifySynced(t, o, m2, l2)
}

// mutateAndVerifySynced runs a synced mutation generation and verifies the
// next recovery reproduces it exactly.
func mutateAndVerifySynced(t *testing.T, o Options, m ds.Map, l *Log) {
	t.Helper()
	th := l.System().Register()
	r := workload.NewRng(11)
	for i := 0; i < 100; i++ {
		ds.Insert(th, m, r.Next()%300+1, r.Next())
	}
	th.Unregister()
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	want := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	m2, l2 := mustOpen(t, o)
	defer l2.Close()
	if got := exportSorted(t, l2, m2); !pairsEqual(got, want) {
		t.Fatalf("synced state diverged after checkpointed recovery: %d pairs want %d", len(got), len(want))
	}
}

// TestReshardOnReopen: records route by key, not by stream, so a directory
// written at one shard count must recover at another.
func TestReshardOnReopen(t *testing.T) {
	dir := t.TempDir()
	model := map[uint64]uint64{}
	o4 := testOpts(dir, "multiverse", 4, nil)
	m, l := mustOpen(t, o4)
	th := l.System().Register()
	for i := uint64(1); i <= 200; i++ {
		if ins, ok := ds.Insert(th, m, i, i+7); ok && ins {
			model[i] = i + 7
		}
	}
	th.Unregister()
	if _, err := l.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	th = l.System().Register()
	for i := uint64(201); i <= 260; i++ {
		if ins, ok := ds.Insert(th, m, i, i+7); ok && ins {
			model[i] = i + 7
		}
	}
	th.Unregister()
	l.Sync()
	l.Crash()
	l.Close()

	// A reopen under the same layout is just recovery: no checkpoint.
	m4, l4 := mustOpen(t, o4)
	if n := l4.Stats().Checkpoints; n != 0 {
		t.Fatalf("a same-layout reopen took %d checkpoints", n)
	}
	if got, want := exportSorted(t, l4, m4), modelPairs(model); !pairsEqual(got, want) {
		t.Fatalf("reopen 4→4 diverged: %d pairs want %d", len(got), len(want))
	}
	l4.Close()

	// A reopen under another layout restores "streams partition the key
	// space" before it returns: one full checkpoint, which truncates every
	// segment the old layout wrote a record into — so the open after it finds
	// no record out of place and takes none.
	o2 := testOpts(dir, "multiverse", 2, nil)
	for reopen, wantCkpts := range []uint64{1, 0} {
		m2, l2 := mustOpen(t, o2)
		if n := l2.Stats().Checkpoints; n != wantCkpts {
			t.Fatalf("reopen %d at 2 shards took %d checkpoints, want %d", reopen, n, wantCkpts)
		}
		if got, want := exportSorted(t, l2, m2), modelPairs(model); !pairsEqual(got, want) {
			t.Fatalf("reshard 4→2 (reopen %d) diverged: %d pairs want %d", reopen, len(got), len(want))
		}
		if b := pollAll(t, OpenShipReader(dir, nil)); len(b.Recs) != 0 || len(b.Image) != len(model) {
			t.Fatalf("reopen %d: a tailer finds %d records beside a base of %d pairs, want 0 and %d",
				reopen, len(b.Recs), len(b.Image), len(model))
		}
		l2.Close()
	}
}

// pollAll drains a fresh tailer: the base image and every record after it.
func pollAll(t *testing.T, r *ShipReader) ShipBatch {
	t.Helper()
	var all ShipBatch
	for empty := 0; empty < 2; {
		b, err := r.Poll()
		if err != nil {
			t.Fatalf("Poll: %v", err)
		}
		if b.Rebase {
			all.Image = b.Image
		} else if len(b.Recs) == 0 {
			empty++
		}
		all.Recs = append(all.Recs, b.Recs...)
	}
	return all
}

// TestSegmentEncodingRoundTrip exercises the record codec directly,
// including the torn-tail and bit-flip verdicts recovery relies on.
func TestSegmentEncodingRoundTrip(t *testing.T) {
	buf := appendSegHeader(nil, 3)
	recs := []record{
		{ts: 10, trace: 77, redo: []stm.RedoRec{{Op: stm.RedoInsert, Key: 1, Val: 2}}},
		{ts: 11, redo: []stm.RedoRec{{Op: stm.RedoDelete, Key: 1}, {Op: stm.RedoInsert, Key: 9, Val: 8}}},
		{ts: 11, trace: 3, redo: nil},
	}
	for _, r := range recs {
		buf = appendRecord(buf, r.ts, r.trace, r.redo)
	}
	got, validLen, torn := decodeRecords(buf)
	if torn || validLen != len(buf) || len(got) != len(recs) {
		t.Fatalf("clean decode: got %d recs, torn=%v, validLen=%d/%d", len(got), torn, validLen, len(buf))
	}
	for i := range recs {
		if got[i].ts != recs[i].ts || got[i].trace != recs[i].trace || len(got[i].redo) != len(recs[i].redo) {
			t.Fatalf("record %d diverged: %+v vs %+v", i, got[i], recs[i])
		}
		for j := range recs[i].redo {
			if got[i].redo[j] != recs[i].redo[j] {
				t.Fatalf("record %d op %d diverged", i, j)
			}
		}
	}
	// A decode's records share one backing array of ops: growing one
	// record's ops must not write into the next record's.
	many := appendSegHeader(nil, 3)
	for k := uint64(1); k <= 8; k++ {
		many = appendRecord(many, k, 0, []stm.RedoRec{{Op: stm.RedoInsert, Key: k, Val: k}})
	}
	shared, _, _ := decodeRecords(many)
	for i := 0; i+1 < len(shared); i++ {
		_ = append(shared[i].redo, stm.RedoRec{Op: stm.RedoDelete, Key: 99})
		if next := shared[i+1].redo[0]; next.Key != uint64(i+2) || next.Op != stm.RedoInsert {
			t.Fatalf("an append to record %d's ops overwrote record %d's: %+v", i, i+1, next)
		}
	}
	// Torn tail: every truncation point beyond the header decodes to a
	// record-boundary prefix; only cuts exactly on a boundary are clean.
	boundaries := map[int]bool{}
	for off, i := segHeaderSize, 0; i < len(recs); i++ {
		off += frame.HeaderSize + recFixedSize + opSize*len(recs[i].redo)
		boundaries[off] = true
	}
	for cut := len(buf) - 1; cut > segHeaderSize; cut-- {
		part, validLen, torn := decodeRecords(buf[:cut])
		if boundaries[cut] {
			if torn || validLen != cut {
				t.Fatalf("cut=%d is a record boundary but decoded torn=%v validLen=%d", cut, torn, validLen)
			}
			continue
		}
		if !torn {
			t.Fatalf("cut=%d: truncated image not reported torn", cut)
		}
		if validLen > cut || len(part) >= len(recs) {
			t.Fatalf("cut=%d: decoded too much (%d recs, validLen=%d)", cut, len(part), validLen)
		}
	}
	// Bit flip in a payload: that record and everything after must drop.
	flip := make([]byte, len(buf))
	copy(flip, buf)
	flip[segHeaderSize+frame.HeaderSize+3] ^= 0x40
	part, _, torn := decodeRecords(flip)
	if !torn || len(part) != 0 {
		t.Fatalf("bit flip in record 0: got %d recs, torn=%v", len(part), torn)
	}
	// Bad header: nothing decodes.
	if recs, _, _ := decodeRecords(append([]byte("NOTMAGIC"), buf[8:]...)); len(recs) != 0 {
		t.Fatal("bad magic decoded records")
	}
}

// TestCheckpointEncodingRoundTrip exercises the checkpoint codec, incl. the
// corruption verdicts.
func TestCheckpointEncodingRoundTrip(t *testing.T) {
	pairs := []ds.KV{{Key: 1, Val: 2}, {Key: 7}, {Key: 9, Val: 100}}
	data := encodeCheckpoint(16, pairs...)
	ts, got, err := parseCheckpoint("ck", data)
	if err != nil || ts != 16 || !pairsEqual(got, pairs) {
		t.Fatalf("round trip: ts=%d pairs=%v err=%v", ts, got, err)
	}
	// Corruption: flipped byte, truncated file, both torn as a whole.
	flipped := bytes.Clone(data)
	flipped[ckptHeaderSize+4] ^= 1
	if _, _, err := parseCheckpoint("ck", flipped); !errors.Is(err, errTornCkpt) {
		t.Fatalf("flipped checkpoint byte: %v, want a torn verdict", err)
	}
	if _, _, err := parseCheckpoint("ck", data[:ckptHeaderSize+10]); !errors.Is(err, errTornCkpt) {
		t.Fatalf("truncated checkpoint: %v, want a torn verdict", err)
	}
	// A flipped kind byte under the old checksum is damage; under a checksum
	// that vouches for it, it is a file of another format — not torn.
	kind2 := bytes.Clone(data)
	kind2[12] = 2
	if _, _, err := parseCheckpoint("ck", kind2); !errors.Is(err, errTornCkpt) {
		t.Fatalf("kind byte flipped under the old checksum: %v, want a torn verdict", err)
	}
	if _, _, err := parseCheckpoint("ck", asDelta(data, 2, 9, 1)); err == nil || errors.Is(err, errTornCkpt) {
		t.Fatalf("checksummed incremental checkpoint: %v, want a refusal that is not a torn verdict", err)
	}
}

// TestCheckpointAllocsDoNotScale: a checkpoint encodes pairs into the file
// image as the scan visits them and keeps nothing, so what one call allocates
// does not grow with the map (before, it was a map entry and a slice element
// per pair, and the map outlived the call).
func TestCheckpointAllocsDoNotScale(t *testing.T) {
	allocs := func(pairs uint64) float64 {
		m, l := mustOpen(t, testOpts(t.TempDir(), "multiverse", 2, func(o *Options) { o.Capacity = 1 << 15 }))
		defer l.Close()
		insertRange(t, l, m, 1, pairs+1)
		if info, err := l.Checkpoint(); err != nil || info.Live != int(pairs) { // sizes the next image
			t.Fatalf("Checkpoint: %+v, %v", info, err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := l.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(1<<14)
	t.Logf("allocs per Checkpoint: %.0f at 1 k pairs, %.0f at 16 k", small, large)
	if large > 2*small {
		t.Fatalf("Checkpoint allocates %.0f times at 16 k pairs and %.0f at 1 k: it grows with the pair count", large, small)
	}
}
