package replica

import (
	"bytes"
	"encoding/hex"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/wal"
)

// goldenSeg is the segment path the golden messages name.
var goldenSeg = wal.ShardDirName(1) + "/" + wal.SegName(2)

// goldenShipMsgs is one message of each kind with the payload hex the
// hand-rolled send*/sendHello builders produced before the codec existed.
var goldenShipMsgs = []struct {
	name string
	msg  shipMsg
	want string
}{
	{"hello", shipMsg{kind: msgHello, files: []fileSize{{wal.CkptName(0x10), 100}, {goldenSeg, 4096}}},
		"0102000000" + "1800636b2d303030303030303030303030303031302e636b7074" + "6400000000000000" +
			"220073686172642d3030312f77616c2d303030303030303030303030303030322e736567" + "0010000000000000"},
	{"append", shipMsg{kind: msgAppend, path: goldenSeg, n: 16, data: []byte("abc")},
		"02220073686172642d3030312f77616c2d303030303030303030303030303030322e7365671000000000000000616263"},
	{"truncate", shipMsg{kind: msgTruncate, path: goldenSeg, n: 40},
		"03220073686172642d3030312f77616c2d303030303030303030303030303030322e7365672800000000000000"},
	{"delete", shipMsg{kind: msgDelete, path: goldenSeg},
		"04220073686172642d3030312f77616c2d303030303030303030303030303030322e736567"},
	{"clock", shipMsg{kind: msgClock, n: 0x0102030405060708}, "060807060504030201"},
}

// TestShipMsgGoldenBytes: the one codec emits the bytes the inline builders
// did, and parses them back to the value it was given.
func TestShipMsgGoldenBytes(t *testing.T) {
	for _, g := range goldenShipMsgs {
		got := g.msg.append(nil)
		if hex.EncodeToString(got) != g.want {
			t.Errorf("%s:\n got  %x\n want %s", g.name, got, g.want)
		}
		back, err := parseShipMsg(got)
		if err != nil || !reflect.DeepEqual(back, g.msg) {
			t.Errorf("%s: parsed back %+v err=%v, want %+v", g.name, back, err, g.msg)
		}
	}
}

// TestShipMsgRejects: short, over-long, unknown-kind and path-escaping
// payloads are errors.
func TestShipMsgRejects(t *testing.T) {
	escaping := shipMsg{kind: msgAppend, path: "../" + wal.SegName(0), n: 0, data: []byte("x")}
	nested := shipMsg{kind: msgHello, files: []fileSize{{wal.CkptName(1), 1}, {wal.ShardDirName(0) + "/../../" + wal.SegName(0), 1}}}
	for name, p := range map[string][]byte{
		"empty":                 {},
		"unknown kind":          {9},
		"retired ack kind":      {5, 7, 0, 0, 0, 0, 0, 0, 0},
		"kind only":             {msgClock},
		"short clock":           {msgClock, 1, 2, 3},
		"clock with trailing":   append(goldenShipMsgs[4].msg.append(nil), 0),
		"hello count past end":  {msgHello, 5, 0, 0, 0},
		"hello with trailing":   append(goldenShipMsgs[0].msg.append(nil), 0),
		"truncate with data":    append(goldenShipMsgs[2].msg.append(nil), "abc"...),
		"delete path cut short": goldenShipMsgs[3].msg.append(nil)[:10],
		"escaping append path":  escaping.append(nil),
		"escaping hello path":   nested.append(nil),
	} {
		if m, err := parseShipMsg(p); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		}
	}
}

// TestEmptyFrameEndsSession: an empty frame — kind byte and all missing —
// sent as the hello or to the Receiver ends that session with an error, never
// a panic: a Shipper lives in the leader process, and anything that can reach
// its port can send this. (The hello is the only thing a Shipper ever reads.)
func TestEmptyFrameEndsSession(t *testing.T) {
	empty := frame.Append(nil, nil)
	escaping := frame.Append(nil, (&shipMsg{kind: msgDelete, path: "../../etc/passwd"}).append(nil))
	run := func(t *testing.T, side func(net.Conn) error, peer func(net.Conn)) {
		t.Helper()
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		done := make(chan error, 1)
		go func() { done <- side(a) }()
		peer(b)
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("session ended cleanly on a malformed frame")
			}
			t.Logf("session ended: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("session did not end")
		}
	}
	leaderDir := t.TempDir()
	shipper := func(c net.Conn) error {
		return NewShipper(c, leaderDir, ShipperOptions{Interval: 200 * time.Microsecond}).Run()
	}
	t.Run("hello", func(t *testing.T) {
		run(t, shipper, func(c net.Conn) { c.Write(empty) })
	})
	for name, bad := range map[string][]byte{"receiver": empty, "receiver escaping path": escaping} {
		t.Run(name, func(t *testing.T) {
			followerDir := t.TempDir()
			run(t, func(c net.Conn) error { return NewReceiver(c, followerDir).Run() }, func(c net.Conn) {
				if m, _, err := readShipMsg(c, nil); err != nil || m.kind != msgHello {
					t.Errorf("receiver's hello: %+v err=%v", m, err)
				}
				c.Write(bad)
			})
			if ents, _ := os.ReadDir(followerDir); len(ents) != 0 {
				t.Fatalf("malformed frame left %d entries in the follower directory", len(ents))
			}
			if _, err := os.Stat(filepath.Join(followerDir, "..", "..", "etc")); err == nil {
				t.Fatal("escaping path was followed")
			}
		})
	}
}

// FuzzParseShipMsg: an arbitrary payload is an error or a message that
// re-encodes to exactly the payload and whose every path the layout
// validator admits; never a panic. Everything parse allocates (manifest
// entries, path strings) is carved out of the payload, which the frame
// reader already capped.
func FuzzParseShipMsg(f *testing.F) {
	for _, g := range goldenShipMsgs {
		f.Add(g.msg.append(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{msgHello, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{5, 7, 0, 0, 0, 0, 0, 0, 0}) // the retired ack: must stay rejected
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := parseShipMsg(p)
		if err != nil {
			return
		}
		if again := m.append(nil); !bytes.Equal(again, p) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", p, again)
		}
		paths := []string{}
		for _, f := range m.files {
			paths = append(paths, f.path)
		}
		if m.kind == msgAppend || m.kind == msgTruncate || m.kind == msgDelete {
			paths = append(paths, m.path)
		}
		for _, path := range paths {
			if err := wal.CheckRel(path); err != nil {
				t.Fatalf("accepted a path the layout validator rejects: %v", err)
			}
		}
		if len(m.files)*10 > len(p) {
			t.Fatalf("%d manifest entries out of %d bytes", len(m.files), len(p))
		}
	})
}
