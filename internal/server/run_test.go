package server_test

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/wal"
)

// rawConn is a bare protocol connection: the test decides what bytes go out
// in which Write.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	fr *frame.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, nc: nc, fr: wire.NewReader(nc)}
}

func frameOf(req wire.Request) []byte {
	return wire.AppendFrame(nil, wire.AppendRequest(nil, &req))
}

func (rc *rawConn) send(b []byte) {
	rc.t.Helper()
	if _, err := rc.nc.Write(b); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

func (rc *rawConn) recv() wire.Response {
	rc.t.Helper()
	payload, err := rc.fr.Next()
	if err != nil {
		rc.t.Fatalf("reading a response: %v", err)
	}
	resp, err := wire.ParseResponse(payload)
	if err != nil {
		rc.t.Fatalf("parsing a response: %v", err)
	}
	return resp
}

// srvWrites counts the Write calls the server made on its n-th connection.
func srvWrites(inj *fault.Injector, path string) int {
	n := 0
	for _, rec := range inj.Trace() {
		if rec.Op == fault.OpWrite && rec.Path == path {
			n++
		}
	}
	return n
}

// TestRunIsOneWrite: N read-only frames that arrive in one piece are one run —
// N responses, in request order, in one Write on the server's side.
func TestRunIsOneWrite(t *testing.T) {
	inj := fault.NewInjector(fault.OS, 1) // no rules: the seam only counts
	inj.Record(true)
	srv, l, _, addr := startServer(t, t.TempDir(), 2, nil, server.Options{Workers: 2, ConnFault: inj})
	defer l.Close()
	defer srv.Close()
	rc := dialRaw(t, addr)

	const n = 32
	var burst []byte
	for id := uint64(1); id <= n; id++ {
		burst = append(burst, frameOf(wire.Request{ID: id, Op: wire.OpSearch, Key: id})...)
	}
	rc.send(burst)
	for id := uint64(1); id <= n; id++ {
		if resp := rc.recv(); resp.ID != id || resp.Status != wire.StatusOK {
			t.Fatalf("response %d of the run: id=%d status=%v", id, resp.ID, resp.Status)
		}
	}
	if got := srvWrites(inj, "srv-1"); got != 1 {
		t.Fatalf("the run's %d responses took %d writes on the server's side, want 1", n, got)
	}
}

// TestHalfFrameDoesNotHoldBackAnswers: A whole plus the first half of B in
// one piece — A's answer must come back while B is still incomplete.
func TestHalfFrameDoesNotHoldBackAnswers(t *testing.T) {
	srv, l, _, addr := startServer(t, t.TempDir(), 1, nil, server.Options{Workers: 1})
	defer l.Close()
	defer srv.Close()
	rc := dialRaw(t, addr)

	a := frameOf(wire.Request{ID: 1, Op: wire.OpPing})
	b := frameOf(wire.Request{ID: 2, Op: wire.OpSearch, Key: 9})
	cut := len(b) / 2 // past B's header: the server knows how much is missing
	rc.send(append(a, b[:cut]...))
	if resp := rc.recv(); resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("answer to A beside a half-sent B: id=%d status=%v", resp.ID, resp.Status)
	}
	rc.send(b[cut:])
	if resp := rc.recv(); resp.ID != 2 || resp.Status != wire.StatusOK {
		t.Fatalf("answer to the completed B: id=%d status=%v", resp.ID, resp.Status)
	}
}

// TestConnCapRefuses: past the connection cap a peer is told StatusBusy once,
// under request id 0, and the connection is closed unread; the client
// library surfaces that as ErrBusy on whatever it was asked to send. A slot
// freed by a closing connection is usable again.
func TestConnCapRefuses(t *testing.T) {
	srv, l, _, addr := startLimited(t, t.TempDir(), 1, nil, server.Options{Workers: 1},
		func(s *server.Server) { s.SetLimits(2, time.Minute) })
	defer l.Close()
	defer srv.Close()
	held := []*client.Client{dial(t, addr), dial(t, addr)}
	for _, cl := range held {
		if err := cl.Ping(); err != nil { // answered, so accepted and counted
			t.Fatalf("ping on a connection under the cap: %v", err)
		}
	}

	rc := dialRaw(t, addr)
	if resp := rc.recv(); resp.ID != 0 || resp.Status != wire.StatusBusy {
		t.Fatalf("over the cap: id=%d status=%v, want id 0 and StatusBusy", resp.ID, resp.Status)
	}
	if _, err := rc.fr.Next(); err != io.EOF {
		t.Fatalf("after the refusal: %v, want the connection closed", err)
	}
	over := dial(t, addr)
	defer over.Close()
	err := over.Ping()
	if !errors.Is(err, client.ErrBusy) || !(errors.Is(err, client.ErrUnanswered) || errors.Is(err, client.ErrNotSent)) {
		t.Fatalf("client over the cap: %v, want ErrBusy joined to a transport outcome", err)
	}

	held[0].Close() // returns once the server closed its side, slot released or about to be
	deadline := time.Now().Add(5 * time.Second)
	for {
		again := dial(t, addr)
		err := again.Ping()
		again.Close()
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrBusy) || !time.Now().Before(deadline) {
			t.Fatalf("after a connection left: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	held[1].Close()
}

// TestIdleConnIsClosed: a peer that sends nothing, and one that sends half a
// frame and stalls, are both closed at the idle deadline instead of holding
// the connection's goroutines forever — and the half frame is never executed.
func TestIdleConnIsClosed(t *testing.T) {
	srv, l, _, addr := startLimited(t, t.TempDir(), 1, nil, server.Options{Workers: 1},
		func(s *server.Server) { s.SetLimits(16, 30*time.Millisecond) })
	defer l.Close()
	defer srv.Close()

	silent, loris := dialRaw(t, addr), dialRaw(t, addr)
	insert := frameOf(wire.Request{ID: 1, Op: wire.OpInsert, Key: 77, Val: 1})
	loris.send(insert[:len(insert)-3])
	for name, rc := range map[string]*rawConn{"silent": silent, "half-frame": loris} {
		if _, err := rc.fr.Next(); err != io.EOF {
			t.Fatalf("%s peer: %v, want the server to close the connection", name, err)
		}
	}
	// A peer that keeps talking is not idle, however long it stays.
	busy := dial(t, addr)
	defer busy.Close()
	for i := 0; i < 10; i++ {
		if _, found, err := busy.Search(77); err != nil || found {
			t.Fatalf("search on a live connection: found=%v err=%v (the half-sent insert must not exist)", found, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOneThreadServesAllConns: with a single TM thread, four connections
// hammering at once all finish — the free list hands the thread out in
// arrival order, so nobody starves behind a busy neighbour.
func TestOneThreadServesAllConns(t *testing.T) {
	srv, l, _, addr := startServer(t, t.TempDir(), 2, nil, server.Options{Workers: 1})
	defer l.Close()
	defer srv.Close()
	const conns, callers, ops = 4, 4, 100
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cl := dial(t, addr)
		defer cl.Close()
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(base uint64) {
				defer wg.Done()
				for i := uint64(0); i < ops; i++ {
					k := base + i
					if i%4 == 0 {
						if _, err := cl.Insert(k, k); err != nil {
							t.Errorf("insert %d: %v", k, err)
							return
						}
					} else if _, _, err := cl.Search(k); err != nil {
						t.Errorf("search %d: %v", k, err)
						return
					}
				}
			}(uint64(c*callers+g+1) * 1000)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("some connection made no progress on the one thread")
	}
	if got, want := srv.Stats().Requests, uint64(conns*callers*ops); got != want {
		t.Fatalf("executed %d requests, want %d", got, want)
	}
}

// TestStagedAcksBounded: a peer that pipelines updates and never reads does
// not make the server park acks without bound — the reader stops at
// MaxStaged in flight and resumes as fsyncs release them — and every update
// is still answered in the end.
func TestStagedAcksBounded(t *testing.T) {
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpSync, Path: "wal-", Delay: 5 * time.Millisecond})
	srv, l, _, addr := startServer(t, t.TempDir(), 1, func(o *wal.Options) { o.FS = inj },
		server.Options{Workers: 1})
	defer l.Close()
	defer srv.Close()
	rc := dialRaw(t, addr)

	const n = 4 * server.MaxStaged
	var burst []byte
	for id := uint64(1); id <= n; id++ {
		burst = append(burst, frameOf(wire.Request{ID: id, Op: wire.OpInsert, Key: id, Val: id})...)
	}
	rc.send(burst)
	var peak uint64
	for {
		st := srv.Stats()
		// Counted before the acks are handed back, so never above the truth.
		if inFlight := st.Updates - st.SyncedAcks - st.FailedAcks; inFlight > peak && inFlight <= n {
			peak = inFlight
		}
		if st.SyncedAcks+st.FailedAcks == n {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if peak > server.MaxStaged {
		t.Fatalf("%d acks parked at once for one connection, bound is %d", peak, server.MaxStaged)
	}
	t.Logf("peak staged acks: %d of bound %d", peak, server.MaxStaged)
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		resp := rc.recv()
		if resp.Status != wire.StatusOK || !resp.OK || seen[resp.ID] {
			t.Fatalf("ack %d: id=%d status=%v inserted=%v duplicate=%v", i, resp.ID, resp.Status, resp.OK, seen[resp.ID])
		}
		seen[resp.ID] = true
	}
}
