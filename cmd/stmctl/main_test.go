package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/wal"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestTopSignalsRegistered is the drift guard between the registration sites
// and the dashboard: it boots a WAL, a tracing server over it and a follower
// fed through a loopback shipping channel, all on one registry, and demands
// that every name in panes — the only names render reads — is in one
// snapshot of it.
func TestTopSignalsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1<<10, 1, reg)
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	m, l, err := wal.OpenWith(wal.Options{Dir: leaderDir, Shards: 2, Capacity: 1 << 12,
		GroupInterval: 500 * time.Microsecond, Obs: reg, Trace: tr})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	defer l.Close()
	srv := server.New(l.System(), m, l, server.Options{Workers: 2, Obs: reg, Trace: tr})
	srv.Start(listen(t))
	defer srv.Close()

	ships := replica.ServeShipping(listen(t), leaderDir, replica.ShipperOptions{})
	defer ships.Close()
	fc, err := net.Dial("tcp", ships.Addr().String())
	if err != nil {
		t.Fatalf("dial shipper: %v", err)
	}
	rc := replica.NewReceiver(fc, followerDir)
	go rc.Run()
	defer rc.Stop()
	fol, err := replica.Open(replica.Options{Dir: followerDir, Shards: 2, Capacity: 1 << 12, Obs: reg})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	defer fol.Close()

	cl, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	for k := uint64(1); k <= 8; k++ {
		if _, err := cl.Insert(k, k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}

	snap := reg.Snapshot()
	has := func(name string, k kind) bool {
		_, ok := snap.Counters[name]
		if k == text {
			_, ok = snap.Text[name]
		}
		return ok
	}
	under := func(prefix string) bool {
		for name := range snap.Counters {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		for name := range snap.Hists {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	for _, p := range panes {
		title := strings.Fields(p.header + p.format)[0]
		if p.signals == nil && !under(p.prefix) {
			t.Errorf("table %q: nothing is registered under %q", title, p.prefix)
		}
		prefix := p.prefix
		if prefix != "" {
			prefix += "0."
		}
		for _, s := range p.signals {
			if !has(prefix+s.name, s.kind) {
				t.Errorf("pane %q reads %q, which nothing registers", title, prefix+s.name)
			}
			if s.over != "" && !has(s.over, total) {
				t.Errorf("pane %q divides by %q, which nothing registers", title, s.over)
			}
		}
	}

	var out bytes.Buffer
	(&frame{w: &out, cur: snap}).render()
	for _, want := range []string{"WAL ", "server ", "replica ", "\nshard ", "\n0 ", "\n1 ", "\nop ", "\ninsert ", "trace stage breakdown", "\nsync-wait "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("frame has no %q:\n%s", want, out.String())
		}
	}
}

// fakeServer answers every request on ln with a blob-carrying OK response —
// a peer that speaks the wire protocol but hands out the given document.
func fakeServer(ln net.Listener, doc string) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer nc.Close()
			var buf []byte
			for {
				p, err := wire.ReadFrame(nc, buf)
				if err != nil {
					return
				}
				buf = p
				req, err := wire.ParseRequest(p)
				if err != nil {
					return
				}
				nc.Write(wire.AppendResponseFrame(nil, &wire.Response{ID: req.ID, Op: req.Op, Blob: []byte(doc)}))
			}
		}()
	}
}

// TestExits pins the one exit convention for both sub-commands and both
// sources: 2 for a usage error, 1 for a transport error or a document
// without a version, with the reason on stderr and nothing rendered.
func TestExits(t *testing.T) {
	dir := t.TempDir()
	versionless := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(versionless, []byte("{}"), 0o666); err != nil {
		t.Fatal(err)
	}
	fake := listen(t)
	go fakeServer(fake, "{}")
	hung := listen(t) // accepts (the kernel does), never answers
	refused := listen(t)
	refused.Close()

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"versionless file", []string{"-file", versionless}, 1, "no version field"},
		{"versionless server", []string{"-addr", fake.Addr().String()}, 1, "no version field"},
		{"missing file", []string{"-file", filepath.Join(dir, "nope.json")}, 1, "no such file"},
		{"unreachable server", []string{"-addr", refused.Addr().String()}, 1, "connection refused"},
		{"server never answers", []string{"-addr", hung.Addr().String(), "-timeout", "100ms"}, 1, "no response within 100ms"},
		{"no source", nil, 2, "exactly one of -addr or -file"},
		{"both sources", []string{"-addr", fake.Addr().String(), "-file", versionless}, 2, "exactly one of -addr or -file"},
		{"unknown flag", []string{"-bogus"}, 2, "not defined: -bogus"},
	} {
		for _, sub := range [][]string{{"top", "-once"}, {"trace"}} {
			t.Run(sub[0]+"/"+tc.name, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run(append(sub, tc.args...), &stdout, &stderr)
				if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
					t.Errorf("exit %d, stderr %q; want exit %d and %q", code, stderr.String(), tc.code, tc.stderr)
				}
				if stdout.Len() != 0 {
					t.Errorf("rendered on a failure: %q", stdout.String())
				}
			})
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"doctor"}, &stderr, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage: stmctl top|trace") {
		t.Errorf("unknown sub-command: exit %d, %q", code, stderr.String())
	}
}
