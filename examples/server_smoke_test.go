package examples

import (
	"bufio"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/stm"
	"repro/internal/wal"
)

// serveBin is cmd/stmserve, built once for every test in this file into a
// directory TestMain removes.
var serveBin struct {
	once sync.Once
	dir  string
	out  []byte
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serveBin.dir != "" {
		os.RemoveAll(serveBin.dir)
	}
	os.Exit(code)
}

func buildServe(t *testing.T) string {
	t.Helper()
	serveBin.once.Do(func() {
		if serveBin.dir, serveBin.err = os.MkdirTemp("", "stmserve-smoke-*"); serveBin.err != nil {
			return
		}
		build := exec.Command("go", "build", "-o", serveBin.dir+"/stmserve", "./cmd/stmserve")
		build.Dir = ".." // module root
		serveBin.out, serveBin.err = build.CombinedOutput()
	})
	if serveBin.err != nil {
		t.Fatalf("build stmserve: %v\n%s", serveBin.err, serveBin.out)
	}
	return serveBin.dir + "/stmserve"
}

// serveProc is one running stmserve with its combined output.
type serveProc struct {
	cmd  *exec.Cmd
	sc   *bufio.Scanner
	tail chan []string
}

func startServe(t *testing.T, ctx context.Context, args ...string) *serveProc {
	t.Helper()
	p := &serveProc{cmd: exec.CommandContext(ctx, buildServe(t), args...), tail: make(chan []string, 1)}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	p.cmd.Stderr = p.cmd.Stdout
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start stmserve %v: %v", args, err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill() }) // backstop; the normal path is drain
	p.sc = bufio.NewScanner(stdout)
	return p
}

// await scans the output up to the line that starts with prefix and returns
// the rest of it: readiness lines carry the kernel-assigned port of ":0".
func (p *serveProc) await(t *testing.T, prefix string) string {
	t.Helper()
	for p.sc.Scan() {
		if rest, ok := strings.CutPrefix(p.sc.Text(), prefix); ok {
			return rest
		}
	}
	t.Fatalf("never saw %q (scan err: %v)", prefix, p.sc.Err())
	return ""
}

// ready is called after the last await: it keeps draining the output so the
// server never blocks on a full pipe.
func (p *serveProc) ready() {
	go func() {
		var lines []string
		for p.sc.Scan() {
			lines = append(lines, p.sc.Text())
		}
		p.tail <- lines
	}()
}

// drain sends SIGTERM, which must finish in-flight work and exit 0, and
// returns what the process printed after ready.
func (p *serveProc) drain(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	out := strings.Join(<-p.tail, "\n")
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("stmserve exited non-zero after drain: %v\n%s", err, out)
	}
	return out
}

// TestServerSmoke exercises the deployment shape the examples don't: the
// stmserve binary as a separate OS process, a client over real TCP, and the
// durability contract across a process restart. It builds cmd/stmserve,
// round-trips a batched transaction, confirms a cross-shard batch is refused
// with nothing applied, takes snapshot reads, drains the server with
// SIGTERM, and then reopens the WAL directory in-process to verify every
// acked write survived.
func TestServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("server smoke test skipped in -short mode")
	}
	const shards = 2
	walDir := t.TempDir() + "/wal"

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	srv := startServe(t, ctx, "-addr", "127.0.0.1:0", "-dir", walDir, "-shards", "2")
	addr := srv.await(t, "stmserve listening on ")
	srv.ready()

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer cl.Close()

	// Partition a key run by the same hash the server shards with, so we
	// can build one same-shard batch (must commit atomically) and one
	// cross-shard batch (must be refused before executing anything).
	var shard0, shard1 []uint64
	for k := uint64(1); len(shard0) < 4 || len(shard1) < 4; k++ {
		if stm.Mix64(k)%shards == 0 {
			shard0 = append(shard0, k)
		} else {
			shard1 = append(shard1, k)
		}
	}

	// Batched update transaction: three inserts on one shard, atomically.
	batch := []wire.BatchOp{
		{Key: shard0[0], Val: 100},
		{Key: shard0[1], Val: 200},
		{Key: shard0[2], Val: 300},
	}
	res, err := cl.Batch(batch)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, ok := range res {
		if !ok {
			t.Fatalf("batch op %d reported not-inserted on empty map", i)
		}
	}

	// Aborting transaction: a batch spanning both shards is refused whole.
	_, err = cl.Batch([]wire.BatchOp{
		{Key: shard0[3], Val: 1},
		{Key: shard1[0], Val: 2},
	})
	if err != client.ErrCrossShard {
		t.Fatalf("cross-shard batch: got %v, want ErrCrossShard", err)
	}
	for _, k := range []uint64{shard0[3], shard1[0]} {
		if _, found, err := cl.Search(k); err != nil || found {
			t.Fatalf("refused batch leaked key %d (found=%v err=%v)", k, found, err)
		}
	}

	// Snapshot reads over the wire.
	if n, sum, err := cl.Range(1, ^uint64(0)); err != nil || n != 3 || sum != shard0[0]+shard0[1]+shard0[2] {
		t.Fatalf("range: n=%d sum=%d err=%v", n, sum, err)
	}
	if n, err := cl.Size(); err != nil || n != 3 {
		t.Fatalf("size: n=%d err=%v", n, err)
	}
	cl.Close()

	srv.drain(t)

	// No acked-but-lost writes: recover the WAL dir and re-read the batch.
	m, l, err := wal.OpenWith(wal.Options{
		Dir: walDir, Backend: "multiverse", Shards: shards, DS: "hashmap",
	})
	if err != nil {
		t.Fatalf("reopen WAL: %v", err)
	}
	defer l.Close()
	th := l.System().Register()
	defer th.Unregister()
	pairs, ok := ds.Export(th, m.(ds.Visitor), 1, ^uint64(0))
	if !ok {
		t.Fatal("recovery export starved")
	}
	have := make(map[uint64]uint64, len(pairs))
	for _, kv := range pairs {
		have[kv.Key] = kv.Val
	}
	want := map[uint64]uint64{shard0[0]: 100, shard0[1]: 200, shard0[2]: 300}
	if len(have) != len(want) {
		t.Fatalf("recovered %d keys, want %d (%v)", len(have), len(want), have)
	}
	for k, v := range want {
		if have[k] != v {
			t.Fatalf("acked key %d lost or wrong after restart: have %d want %d", k, have[k], v)
		}
	}
}

// TestFollowerSmoke runs the follower role as a process, next to its leader:
// stmserve -ship on one side, stmserve -follow on the other. A write through
// the leader must become readable on the follower, the follower must refuse
// writes, the feed must find the leader again after it went away (the redial
// path) and report caught-up again, and a SIGTERM under -promote-on-exit must
// recover the mirrored copy as a leader log and exit 0. The leader comes
// back under another shard count, so its reopen checkpoints and truncates:
// the keys written before then live in that checkpoint alone, and a second
// follower started from nothing afterwards must still serve them.
func TestFollowerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("follower smoke test skipped in -short mode")
	}
	tmp := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	startLeader := func(ship, shards string) (p *serveProc, shipAddr, addr string) {
		p = startServe(t, ctx, "-addr", "127.0.0.1:0", "-dir", tmp+"/leader", "-shards", shards, "-ship", ship)
		shipAddr = p.await(t, "stmserve shipping on ")
		addr = p.await(t, "stmserve listening on ")
		p.ready()
		return p, shipAddr, addr
	}
	startFollower := func(shipAddr, dir, shards string, more ...string) (*serveProc, *client.Client) {
		p := startServe(t, ctx, append([]string{"-follow", shipAddr, "-dir", dir, "-shards", shards, "-addr", "127.0.0.1:0"}, more...)...)
		if got := p.await(t, "stmserve following on "); got != dir {
			t.Fatalf("following on %q, want %q", got, dir)
		}
		addr := p.await(t, "stmserve listening on ")
		p.ready()
		return p, dial(t, addr)
	}
	// readable: a write acked by the leader becomes readable on a follower.
	readable := func(fcl *client.Client, key, val uint64) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			got, found, err := fcl.Search(key)
			if err != nil {
				t.Fatalf("follower search %d: %v", key, err)
			}
			if found && got == val {
				return
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("key %d never reached the follower (found=%v val=%d)", key, found, got)
			}
		}
	}
	insert := func(lcl *client.Client, key, val uint64) {
		t.Helper()
		if ins, err := lcl.Insert(key, val); err != nil || !ins {
			t.Fatalf("leader insert %d: ins=%v err=%v", key, ins, err)
		}
	}

	leader, shipAddr, leaderAddr := startLeader("127.0.0.1:0", "2")
	// -shards 2 and not 0: the mirror is still empty, there is no layout to
	// derive yet.
	follower, fcl := startFollower(shipAddr, tmp+"/mirror", "2", "-promote-on-exit")
	lcl := dial(t, leaderAddr)
	for k := uint64(1); k <= 8; k++ {
		insert(lcl, k, k*11)
		readable(fcl, k, k*11)
	}
	if _, err := fcl.Insert(100, 1); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("insert on the follower: %v, want ErrReadOnly", err)
	}
	if _, found, err := fcl.Search(100); err != nil || found {
		t.Fatalf("the refused insert left a trace: found=%v err=%v", found, err)
	}

	// The shipping listener goes away with its leader and comes back on the
	// same address: the follower's feed must redial and resume.
	lcl.Close()
	leader.drain(t)
	leader, _, leaderAddr = startLeader(shipAddr, "4")
	lcl = dial(t, leaderAddr)
	insert(lcl, 9, 99)
	readable(fcl, 9, 99)

	late, lfcl := startFollower(shipAddr, tmp+"/mirror-late", "4")
	for k := uint64(1); k <= 8; k++ {
		readable(lfcl, k, k*11)
	}
	readable(lfcl, 9, 99)

	// Both followers have long drained the directory, and the dials that
	// failed while the leader was away must not hold caught-up back.
	out := follower.drain(t)
	if !strings.Contains(out, "health=caught-up") {
		t.Fatalf("follower not caught up after the redial:\n%s", out)
	}
	if !strings.Contains(out, "stmserve: promoted at ts=") {
		t.Fatalf("follower exited without promoting:\n%s", out)
	}
	if out := late.drain(t); !strings.Contains(out, "health=caught-up") {
		t.Fatalf("late follower not caught up:\n%s", out)
	}
	leader.drain(t)
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestServerSmokeFlags: a flag of the other role, or both feeds at once, is a
// usage error (exit 2) before anything is opened.
func TestServerSmokeFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("flag matrix skipped in -short mode")
	}
	dir := t.TempDir() + "/never-created"
	for name, args := range map[string][]string{
		"no dir":               {"-addr", "127.0.0.1:0"},
		"policy on a follower": {"-dir", dir, "-follow", "127.0.0.1:1", "-policy", "none"},
		"ack on a follower":    {"-dir", dir, "-tail", "-ack", "commit"},
		"ship on a follower":   {"-dir", dir, "-tail", "-ship", "127.0.0.1:0"},
		"promote on a leader":  {"-dir", dir, "-promote-on-exit"},
		"follow and tail":      {"-dir", dir, "-follow", "127.0.0.1:1", "-tail"},
	} {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(buildServe(t), args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("stmserve %v: err=%v, want exit 2\n%s", args, err, out)
			}
			if _, err := os.Stat(dir); err == nil {
				t.Fatal("a usage error still created the directory")
			}
		})
	}
}
