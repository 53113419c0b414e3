package wal

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/stm"
	"repro/internal/workload"
)

// shipModel folds ShipBatches into a model map exactly the way a follower
// must: a rebase replaces everything, records apply their redo ops in order.
type shipModel struct {
	state map[uint64]uint64
	maxTs uint64
}

func newShipModel() *shipModel { return &shipModel{state: map[uint64]uint64{}} }

func (sm *shipModel) apply(b ShipBatch) {
	if b.Rebase {
		sm.state = b.Image
		if b.BaseTs > sm.maxTs {
			sm.maxTs = b.BaseTs
		}
		return
	}
	for _, rec := range b.Recs {
		for _, op := range rec.Redo {
			if op.Op == stm.RedoDelete {
				delete(sm.state, op.Key)
			} else {
				sm.state[op.Key] = op.Val
			}
		}
		if rec.Ts > sm.maxTs {
			sm.maxTs = rec.Ts
		}
	}
}

func (sm *shipModel) pairs() []ds.KV {
	return modelPairs(sm.state)
}

// drain polls until two consecutive empty batches, applying everything.
func (sm *shipModel) drain(t *testing.T, r *ShipReader) {
	t.Helper()
	empty := 0
	for empty < 2 {
		b, err := r.Poll()
		if err != nil {
			t.Fatalf("Poll: %v", err)
		}
		if !b.Rebase && len(b.Recs) == 0 {
			empty++
			continue
		}
		empty = 0
		sm.apply(b)
	}
}

// TestShipReaderTailsLiveLog: a tailer following a writing leader across
// rotations converges on exactly the leader's synced state.
func TestShipReaderTailsLiveLog(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "shards=1", 4: "shards=4"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			m, l := mustOpen(t, testOpts(dir, "multiverse", shards, func(o *Options) {
				o.SegmentBytes = 1 << 12 // force rotations under the tail
			}))
			defer l.Close()

			r := OpenShipReader(dir, nil)
			sm := newShipModel()

			th := l.System().Register()
			rng := workload.NewRng(11)
			for i := 0; i < 2000; i++ {
				k := rng.Next()%512 + 1
				if rng.Next()%4 == 0 {
					ds.Delete(th, m, k)
				} else {
					ds.Insert(th, m, k, k*3)
				}
				if i%100 == 0 {
					// Interleave tailing with writing: batches must apply
					// cleanly mid-stream, not only after quiesce.
					b, err := r.Poll()
					if err != nil {
						t.Fatalf("Poll mid-write: %v", err)
					}
					sm.apply(b)
				}
			}
			th.Unregister()
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			sm.drain(t, r)
			want := exportSorted(t, l, m)
			if got := sm.pairs(); !pairsEqual(got, want) {
				t.Fatalf("tailer diverged: got %d pairs, leader has %d", len(got), len(want))
			}
			if sm.maxTs == 0 {
				t.Fatal("tailer never observed a timestamp")
			}
		})
	}
}

// TestShipReaderCheckpointTruncationRace: ship while Checkpoint() deletes
// segments out from under the reader. The follower must land on the
// checkpoint plus the live suffix — never a gap — even when the rebase
// path fires repeatedly mid-stream.
func TestShipReaderCheckpointTruncationRace(t *testing.T) {
	for _, backend := range walBackends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			m, l := mustOpen(t, testOpts(dir, backend, 2, func(o *Options) {
				o.SegmentBytes = 1 << 11 // tiny: many segments, cheap truncations
			}))
			defer l.Close()

			r := OpenShipReader(dir, nil)
			sm := newShipModel()

			var wg sync.WaitGroup
			stop := make(chan struct{})
			ckptDone := make(chan struct{})
			wg.Add(1)
			go func() { // writer: sustained churn over a small key space
				defer wg.Done()
				th := l.System().Register()
				defer th.Unregister()
				rng := workload.NewRng(23)
				for {
					// The churn lasts as long as the truncations it races.
					// An unthrottled writer left running beside the tail
					// outgrows it: with 2 KiB segments a Poll re-lists the
					// directory per segment it advances through, and a
					// backlog of thousands keeps one Poll from returning.
					select {
					case <-stop:
						return
					case <-ckptDone:
						return
					default:
					}
					k := rng.Next()%256 + 1
					if rng.Next()%3 == 0 {
						ds.Delete(th, m, k)
					} else {
						ds.Insert(th, m, k, rng.Next())
					}
				}
			}()
			wg.Add(1)
			ckpts := 0
			go func() { // checkpointer: delete segments under the tail
				defer wg.Done()
				defer close(ckptDone)
				for i := 0; i < 8; i++ {
					select {
					case <-stop:
						return
					case <-time.After(5 * time.Millisecond):
					}
					if _, err := l.Checkpoint(); err == nil {
						ckpts++
					}
				}
			}()

			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				b, err := r.Poll()
				if err != nil {
					t.Fatalf("Poll during churn: %v", err)
				}
				sm.apply(b)
			}
			close(stop)
			wg.Wait()

			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			sm.drain(t, r)
			want := exportSorted(t, l, m)
			if got := sm.pairs(); !pairsEqual(got, want) {
				t.Fatalf("follower diverged after checkpoint race: got %d pairs, leader has %d (rebases=%d ckpts=%d)",
					len(got), len(want), r.rebases, ckpts)
			}
			if ckpts == 0 {
				t.Fatal("no checkpoint succeeded: the truncation race was never exercised")
			}
			if sm.maxTs == 0 {
				t.Fatal("tailer never observed a timestamp")
			}

			// Force the rebase path: without polling, churn enough to rotate
			// past the tailed segment, then checkpoint so truncation deletes
			// it. The next poll finds its segment gone and must rebase onto
			// the checkpoint — landing on checkpoint + suffix, never a gap.
			before := r.rebases
			for attempt := 0; attempt < 10 && r.rebases == before; attempt++ {
				th := l.System().Register()
				rng := workload.NewRng(uint64(97 + attempt))
				for i := 0; i < 1500; i++ {
					// Delete+insert: both sides commit a record even when the
					// key already exists, so the churn genuinely rotates
					// segments past the idle tail.
					k := rng.Next()%256 + 1
					ds.Delete(th, m, k)
					ds.Insert(th, m, k, rng.Next())
				}
				th.Unregister()
				if err := l.Sync(); err != nil {
					t.Fatalf("Sync: %v", err)
				}
				if _, err := l.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				sm.drain(t, r)
			}
			if r.rebases == before {
				t.Fatalf("checkpoint truncation never outran the tail (rebases=%d)", before)
			}
			want = exportSorted(t, l, m)
			if got := sm.pairs(); !pairsEqual(got, want) {
				t.Fatalf("follower diverged after forced rebase: got %d pairs, leader has %d (baseTs=%d)",
					len(got), len(want), r.baseTs)
			}
			if r.baseTs == 0 {
				t.Fatal("rebase landed on the empty image despite successful checkpoints")
			}
		})
	}
}

// TestShipReaderIsReadOnly: unlike recovery, the tailer must never repair
// the leader's directory — an invalid checkpoint file is skipped, not
// deleted, and a torn segment tail is left exactly as found.
func TestShipReaderIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	m, l := mustOpen(t, testOpts(dir, "multiverse", 1, nil))
	insertRange(t, l, m, 1, 100)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Plant an invalid checkpoint (stale crash damage, in the leader's
	// eyes) and tear the active segment's tail.
	badCkpt := filepath.Join(dir, "ck-00000000000000ff.ckpt")
	if err := os.WriteFile(badCkpt, []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-000", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	seg := segs[len(segs)-1]
	pre, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, pre...), 0xde, 0xad)
	if err := os.WriteFile(seg, torn, 0o666); err != nil {
		t.Fatal(err)
	}

	r := OpenShipReader(dir, nil)
	sm := newShipModel()
	sm.drain(t, r)
	want := exportSorted(t, l, m)
	if got := sm.pairs(); !pairsEqual(got, want) {
		t.Fatalf("tailer state wrong over damaged dir: got %d pairs, want %d", len(got), len(want))
	}
	if _, err := os.Stat(badCkpt); err != nil {
		t.Fatalf("tailer touched the invalid checkpoint: %v", err)
	}
	post, err := os.ReadFile(seg)
	if err != nil || len(post) != len(torn) {
		t.Fatalf("tailer modified the torn segment: len %d want %d (%v)", len(post), len(torn), err)
	}
	l.Close()
}

// TestShipReaderTakesALateCheckpoint: a mirror the shipping channel fills
// for the first time holds its segments before its checkpoints, and a tailer
// that polled in between took the empty image as its base. Nothing it tails
// ever vanishes, so only the checkpoint's arrival can tell it to rebase; the
// half-arrived file before that must be passed over, not trusted.
func TestShipReaderTakesALateCheckpoint(t *testing.T) {
	dir, mirror := t.TempDir(), t.TempDir()
	m, l := mustOpen(t, testOpts(dir, "multiverse", 2, nil))
	insertRange(t, l, m, 1, 100)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m, l = mustOpen(t, testOpts(dir, "multiverse", 2, nil))
	defer l.Close()
	insertRange(t, l, m, 101, 120)
	if info, err := l.Checkpoint(); err != nil || info.TruncatedSegs == 0 {
		t.Fatalf("Checkpoint: %+v, %v: keys 1..100 should now live in it alone", info, err)
	}
	insertRange(t, l, m, 121, 140)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	r := OpenShipReader(mirror, nil)
	sm := newShipModel()
	ls, err := ListDir(fault.OS, dir)
	if err != nil || len(ls.Ckpts) != 1 {
		t.Fatalf("ListDir: %+v, %v", ls, err)
	}
	for _, rel := range ls.Rels() { // the channel's order: segments, then checkpoints
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(mirror, rel)
		os.MkdirAll(filepath.Dir(dst), 0o777)
		if rel == ls.Ckpts[0] {
			sm.drain(t, r) // base: the empty image; then the segments' records
			if err := os.WriteFile(dst, data[:len(data)/2], 0o666); err != nil {
				t.Fatal(err)
			}
			sm.drain(t, r)
			if r.rebases != 1 {
				t.Fatalf("Rebases = %d with half a checkpoint in the mirror", r.rebases)
			}
		}
		if err := os.WriteFile(dst, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	sm.drain(t, r)
	if r.rebases != 2 {
		t.Fatalf("Rebases = %d: the checkpoint that arrived after the first poll was never taken", r.rebases)
	}
	if got, want := sm.pairs(), exportSorted(t, l, m); !pairsEqual(got, want) {
		t.Fatalf("tailer holds %d pairs, leader %d", len(got), len(want))
	}
}

// TestShipReaderOpensNoCheckpointBelowItsBase: names carry the ts, so a poll
// opens only checkpoints above the base it holds. A half-received newest one
// beside the complete base costs one read per poll, not one per listed file,
// and once it is whole the reader takes it.
func TestShipReaderOpensNoCheckpointBelowItsBase(t *testing.T) {
	dir := t.TempDir()
	plantCkpts(t, dir, map[uint64]bool{30: true}, 10, 20, 30)
	inj := fault.NewInjector(fault.OS, 1)
	inj.Record(true)
	r := OpenShipReader(dir, inj)
	poll := func(wantRebase bool, wantBase uint64) {
		t.Helper()
		b, err := r.Poll()
		if err != nil || b.Rebase != wantRebase || r.baseTs != wantBase {
			t.Fatalf("Poll: rebase=%v base=%d err=%v, want rebase=%v base=%d", b.Rebase, r.baseTs, err, wantRebase, wantBase)
		}
	}
	poll(true, 20) // 30 does not parse, 20 does; 10 is never opened
	poll(false, 20)
	poll(false, 20)
	plantCkpts(t, dir, nil, 30)
	poll(true, 30)
	poll(false, 30) // nothing listed above the base: nothing opened
	want := []string{CkptName(30), CkptName(20), CkptName(30), CkptName(30), CkptName(30)}
	if got := ckptReads(inj); !slices.Equal(got, want) {
		t.Fatalf("five polls read %v, want %v", got, want)
	}
}

// TestShipReaderPollErrorLosesNothing: tails advance in place while a Poll
// reads, so a read error partway through — a later shard's segment, or a
// successor segment of the same shard — must rewind them; otherwise the
// records already collected are dropped with the failed batch and the
// follower silently diverges until its next rebase.
func TestShipReaderPollErrorLosesNothing(t *testing.T) {
	cases := []struct {
		name      string
		shards    int
		faultPath string
	}{
		{"later-shard", 2, ShardDirName(1)},
		{"successor-segment", 1, SegName(1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			m, l := mustOpen(t, testOpts(dir, "multiverse", c.shards, func(o *Options) {
				o.SegmentBytes = 1 << 12 // several sealed segments per stream
			}))
			defer l.Close()
			insertRange(t, l, m, 1, 1500)
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}

			inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpRead, Path: c.faultPath, Times: 1})
			r := OpenShipReader(dir, inj)
			sm := newShipModel()
			failed := 0
			for empty := 0; empty < 2; {
				b, err := r.Poll()
				if err != nil {
					failed++
					continue
				}
				if !b.Rebase && len(b.Recs) == 0 {
					empty++
					continue
				}
				empty = 0
				sm.apply(b)
			}
			if failed != 1 || inj.Injected() != 1 {
				t.Fatalf("%d polls failed, %d faults injected; want exactly one of each", failed, inj.Injected())
			}
			want := exportSorted(t, l, m)
			if got := sm.pairs(); !pairsEqual(got, want) {
				t.Fatalf("records lost across the failed poll: shipped %d pairs, log holds %d", len(got), len(want))
			}
		})
	}
}
