package wal

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/stm"
)

// gateFS parks one segment-file Write or Sync on a rendezvous: arm(op) makes
// the next such call on a "wal-" path announce itself on parked and then wait
// for release before it reaches the FS underneath (which may still inject a
// fault into it). A test holds a flush mid-I/O this way — s.mu taken, in
// already moved onto buf — for exactly as long as it needs, with no sleeps.
type gateFS struct {
	fault.FS
	armed   atomic.Uint32 // fault.Op to park next, 0 = pass through
	parked  chan struct{}
	release chan struct{}
}

func newGateFS(inner fault.FS) *gateFS {
	return &gateFS{FS: inner, parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) arm(op fault.Op) { g.armed.Store(uint32(op)) }

// awaitParked blocks until the armed call has arrived at the gate.
func (g *gateFS) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no flush reached the gate")
	}
}

func (g *gateFS) pass(op fault.Op, name string) {
	if strings.Contains(name, "wal-") && g.armed.CompareAndSwap(uint32(op), 0) {
		g.parked <- struct{}{}
		<-g.release
	}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	fault.File
	g *gateFS
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.g.pass(fault.OpWrite, f.Name())
	return f.File.Write(p)
}

func (f *gateFile) Sync() error {
	f.g.pass(fault.OpSync, f.Name())
	return f.File.Sync()
}

// whileParked runs body, which must finish while the gate still holds the
// flush; a body that is itself stuck behind the parked flush fails the test
// instead of hanging it.
func (g *gateFS) whileParked(t *testing.T, what string, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); body() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(g.release)
		t.Fatalf("%s did not finish while a flush was parked mid-I/O", what)
	}
}

// TestCommitNeverWaitsOnFsync: with the group-commit fsync parked — the flush
// lock held for as long as the disk takes — a committer's ObserveCommit
// returns, so its write locks are released and a reader of the very key it
// wrote commits too. Nothing on the commit path may queue behind the disk.
func TestCommitNeverWaitsOnFsync(t *testing.T) {
	dir := t.TempDir()
	gate := newGateFS(fault.OS)
	m, l := mustOpen(t, testOpts(dir, "multiverse", 1, func(o *Options) { o.FS = gate }))
	gate.arm(fault.OpSync)
	insertRange(t, l, m, 1, 2) // the flusher picks it up and parks in its fsync
	gate.awaitParked(t)

	gate.whileParked(t, "a commit and a read of the committed key", func() {
		writer, reader := l.System().Register(), l.System().Register()
		defer writer.Unregister()
		defer reader.Unregister()
		if ins, ok := ds.Insert(writer, m, 2, 22); !ok || !ins {
			t.Errorf("insert beside a parked fsync: ins=%v ok=%v", ins, ok)
		}
		if v, found, ok := ds.Search(reader, m, 2); !ok || !found || v != 22 {
			t.Errorf("read of the key just committed: v=%d found=%v ok=%v", v, found, ok)
		}
	})
	close(gate.release)

	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	acked := exportSorted(t, l, m)
	l.Crash()
	l.Close()
	reopenAndCheck(t, dir, acked)
}

// TestMaxTsFollowsRecordAcrossRotation: a record observed while segment N was
// active, but taken by the flush after the one that rotated N away, lives in
// segment N+1 — and N+1's maxTs must say so, or a checkpoint at that record's
// timestamp reaps the only durable copy of it.
func TestMaxTsFollowsRecordAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	gate := newGateFS(fault.OS)
	m, l := mustOpen(t, testOpts(dir, "multiverse", 1, func(o *Options) {
		o.FS = gate
		o.SegmentBytes = 1 << 10
		o.GroupInterval = time.Hour // the test drives every flush itself
	}))
	defer l.Close()
	insertRange(t, l, m, 1, 101) // > SegmentBytes: the flush that takes these rotates
	gate.arm(fault.OpSync)
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	gate.awaitParked(t) // segment 0 written, its fsync parked, rotation still ahead

	// One transaction bigger than a segment, observed while segment 0 is
	// still the active one: the next flush rotates right after writing it,
	// so it ends up alone in a completed segment.
	gate.whileParked(t, "the mid-flush commit", func() {
		th := l.System().Register()
		defer th.Unregister()
		if !th.Atomic(func(tx stm.Txn) {
			for k := uint64(1000); k < 1100; k++ {
				m.InsertTx(tx, k, k)
			}
		}) {
			t.Error("mid-flush batch starved")
		}
	})
	close(gate.release)
	if err := <-synced; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Sync(); err != nil { // takes the batch into segment 1, rotates to 2
		t.Fatalf("Sync: %v", err)
	}

	seg1 := segPath(filepath.Join(dir, ShardDirName(0)), 1)
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn := decodeRecords(data)
	if torn || len(recs) != 1 || len(recs[0].redo) != 100 {
		t.Fatalf("segment 1 holds %d records (torn=%v), want exactly the mid-flush batch", len(recs), torn)
	}
	// Timestamps of transactions that do not conflict may tie, so segment 0
	// may or may not fall below the batch's; segment 1 must not.
	s := l.streams[0]
	below := s.truncateBelow(recs[0].ts)
	if _, err := os.Stat(seg1); err != nil {
		t.Fatalf("segment 1 reaped while it holds a record at the truncation timestamp: %v", err)
	}
	if at := s.truncateBelow(recs[0].ts + 1); below+at != 2 {
		t.Fatalf("truncation removed %d+%d segments, want both completed ones by ts+1", below, at)
	}
}
