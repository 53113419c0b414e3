// The shipping channel: byte-level replication of a leader's log directory
// over a single connection, in internal/frame's CRC framing so a flipped bit
// in transit surfaces as a corrupt frame, never as silently divergent
// follower bytes. The message vocabulary is shipmsg.go's.
//
// The design leans entirely on the WAL's own file discipline. Every file in
// a log directory is append-only or truncate-only — segments grow, seals
// truncate them, checkpoints appear complete via atomic rename and are only
// ever deleted — so (path, size) fully determines how much of a file the
// follower already has, and resynchronization after a sever is just a size
// manifest. The Shipper scans the leader directory each round and emits the
// delta as frames; the Receiver applies them in order into a local
// directory that is itself a valid WAL directory — a local ShipReader tails
// it, and promotion is ordinary wal recovery over it.
//
// Ordering is the one correctness-critical invariant: within a round the
// Shipper sends segment appends first, then checkpoint bytes, then — last —
// deletions. A shipped deletion is therefore always preceded on the wire by
// the complete checkpoint that covers it (the leader renames the checkpoint
// durable before truncating), so a sever at any frame boundary leaves the
// follower with at worst a stale-but-consistent directory: segments the
// leader already pruned plus, possibly, a partial checkpoint file that
// parse validation rejects. Nothing readable ever has a gap — once a mirror
// has been filled: during its first fill the segments are there before the
// checkpoint, so records the leader truncated long ago are missing until
// the checkpoint is complete, and the ShipReader tailing it takes it as a
// new base when it parses (wal.ShipReader.Poll).
//
// There is no flow control of the channel's own, because none is needed:
// the Shipper is synchronous — one chunk read from a file, framed, handed to
// a blocking Write — so the memory a session holds is one chunk buffer plus
// one frame buffer whatever the follower does, and everything in flight sits
// in the kernel's socket buffers, which TCP's window bounds. A stalled or
// dead follower (fault.Injector Delay on its conn's reads) therefore
// back-pressures shipping through that Write instead of ballooning memory.
// After its hello the follower sends nothing.
package replica

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/wal"
)

// clockInterval is how often a Shipper restates its wall clock. The
// follower keeps the minimum observed (recvLocal - leaderSent) delta as its
// clock-offset estimate — offset plus minimum one-way latency — which is
// what shifts replica-apply spans into the leader's timebase.
const clockInterval = 200 * time.Millisecond

// chunkBytes caps one append message's data (well under
// wire.MaxFramePayload, with headroom for the path header).
const chunkBytes = 256 << 10

// ShipperOptions tunes the leader side of the channel.
type ShipperOptions struct {
	// Interval is the directory scan cadence (default 1ms).
	Interval time.Duration
}

func (o *ShipperOptions) fill() {
	if o.Interval == 0 {
		o.Interval = time.Millisecond
	}
}

// Shipper replicates a leader log directory over one connection. It reads
// the directory with plain os calls (it lives in the leader process, whose
// own fault seam is the WAL's): the shipping channel's fault surface is the
// connection, injected by wrapping conn with fault.Injector.Conn.
type Shipper struct {
	dir  string
	conn net.Conn
	opts ShipperOptions

	sent map[string]int64 // relative path -> bytes the follower holds

	wbuf []byte        // frame under construction; send runs on Run's goroutine only
	rbuf []byte        // one chunk of file bytes, same goroutine
	read atomic.Uint64 // file bytes read so far (tests bound it by what the follower took in)

	stop     chan struct{}
	stopOnce sync.Once
}

// NewShipper wraps conn; call Run to serve. dir is the leader's log
// directory.
func NewShipper(conn net.Conn, dir string, opts ShipperOptions) *Shipper {
	opts.fill()
	return &Shipper{
		dir:  dir,
		conn: conn,
		opts: opts,
		sent: make(map[string]int64),
		rbuf: make([]byte, chunkBytes),
		stop: make(chan struct{}),
	}
}

// Stop terminates the session; Run returns shortly after.
func (s *Shipper) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.conn.Close()
	})
}

// Run serves the connection until it fails or Stop is called: read the
// follower's manifest, then ship directory deltas every Interval. The
// returned error is the terminating cause (nil only for a clean Stop).
func (s *Shipper) Run() error {
	if err := s.readHello(); err != nil {
		return s.finish(err)
	}
	if err := s.sendClock(); err != nil {
		return s.finish(err)
	}
	lastClock := time.Now()
	tick := time.NewTicker(s.opts.Interval)
	defer tick.Stop()
	for {
		if err := s.round(); err != nil {
			return s.finish(err)
		}
		if time.Since(lastClock) >= clockInterval {
			if err := s.sendClock(); err != nil {
				return s.finish(err)
			}
			lastClock = time.Now()
		}
		select {
		case <-s.stop:
			return s.finish(nil)
		case <-tick.C:
		}
	}
}

func (s *Shipper) finish(err error) error {
	s.Stop()
	if err != nil {
		return fmt.Errorf("replica: shipper: %w", err)
	}
	return nil
}

// readHello seeds the sent map from the follower's manifest, so a redial
// resumes where the last session's received bytes left off instead of
// re-shipping the directory.
func (s *Shipper) readHello() error {
	m, _, err := readShipMsg(s.conn, nil)
	if err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	if m.kind != msgHello {
		return fmt.Errorf("expected hello, got ship message kind %d", m.kind)
	}
	for _, f := range m.files {
		s.sent[f.path] = int64(f.size)
	}
	return nil
}

// round ships one scan's delta. Order is the invariant (see package
// comment): segments, then checkpoints, then deletions last.
func (s *Shipper) round() error {
	ls, err := wal.ListDir(fault.OS, s.dir)
	if err != nil {
		return err
	}
	onDisk := make(map[string]bool)
	for _, rel := range ls.Rels() {
		onDisk[rel] = true
		if err := s.shipFile(rel); err != nil {
			return err
		}
	}
	var gone []string
	for rel := range s.sent {
		if !onDisk[rel] {
			gone = append(gone, rel)
		}
	}
	sort.Strings(gone)
	for _, rel := range gone {
		if err := s.send(&shipMsg{kind: msgDelete, path: rel}); err != nil {
			return err
		}
		delete(s.sent, rel)
	}
	return nil
}

// shipFile sends whatever of rel the follower lacks: a truncate if the file
// shrank (seal truncation), appends for new bytes. Only the bytes past what
// the follower holds are read — [have, size) of a file that is append-only
// or truncate-only — so a round costs the delta, not the directory. A file
// deleted between scan and read is left to the next round's delete pass; a
// read that comes up short (the file shrank after Stat) ships what it got.
func (s *Shipper) shipFile(rel string) error {
	gone := func(err error) error {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	path := filepath.Join(s.dir, rel)
	fi, err := os.Stat(path)
	if err != nil {
		return gone(err)
	}
	cur, have := fi.Size(), s.sent[rel]
	if cur < have {
		if err := s.send(&shipMsg{kind: msgTruncate, path: rel, n: uint64(cur)}); err != nil {
			return err
		}
		have = cur
	}
	s.sent[rel] = have
	if have == cur {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return gone(err)
	}
	defer f.Close()
	for have < cur {
		n, err := f.ReadAt(s.rbuf[:min(chunkBytes, cur-have)], have)
		s.read.Add(uint64(n))
		if n > 0 {
			if err := s.send(&shipMsg{kind: msgAppend, path: rel, n: uint64(have), data: s.rbuf[:n]}); err != nil {
				return err
			}
			have += int64(n)
			s.sent[rel] = have
		}
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
	return nil
}

// sendClock restates the leader's wall clock (read as late as possible —
// right before the frame is written — so the follower's offset estimate is
// inflated by no more than the write's own stall).
func (s *Shipper) sendClock() error {
	return s.send(&shipMsg{kind: msgClock, n: uint64(time.Now().UnixNano())})
}

// send writes one frame; the blocking Write is the channel's back-pressure.
func (s *Shipper) send(m *shipMsg) (err error) {
	s.wbuf, err = writeShipMsg(s.conn, s.wbuf, m)
	return err
}

// Receiver applies a Shipper's frames into a local directory, keeping it a
// byte-for-byte suffix-consistent copy of the leader's. The directory is a
// valid WAL directory at every frame boundary, so a local ShipReader can
// tail it concurrently and wal recovery can promote it after a sever.
type Receiver struct {
	dir  string
	conn net.Conn

	bytes atomic.Uint64

	// clockOff is the clock-offset estimate (ns, follower minus leader): the
	// minimum (recvLocal - leaderSent) over this session's clock frames, so
	// it overestimates the true offset by at most the minimum one-way
	// latency. A Replica running the feed points it at its own word, which
	// so carries the newest session's estimate across redials.
	clockOff *atomic.Int64
	clockSet bool // a clock frame arrived this session; Run's goroutine only

	stopOnce sync.Once
}

// NewReceiver wraps conn; call Run to serve. dir is created if missing.
func NewReceiver(conn net.Conn, dir string) *Receiver {
	return &Receiver{dir: dir, conn: conn, clockOff: new(atomic.Int64)}
}

// Bytes reports applied volume.
func (r *Receiver) Bytes() uint64 { return r.bytes.Load() }

// Stop terminates the session; Run returns shortly after.
func (r *Receiver) Stop() {
	r.stopOnce.Do(func() { r.conn.Close() })
}

// Run sends the manifest hello, then applies frames until the connection
// fails or Stop is called. A mid-chunk sever leaves a torn file tail —
// exactly the damage wal recovery and the ShipReader already tolerate.
func (r *Receiver) Run() error {
	if err := os.MkdirAll(r.dir, 0o777); err != nil {
		return fmt.Errorf("replica: receiver: %w", err)
	}
	if err := r.sendHello(); err != nil {
		return fmt.Errorf("replica: receiver: %w", err)
	}
	var rbuf []byte
	fail := func(err error) error {
		r.Stop()
		return fmt.Errorf("replica: receiver: %w", err)
	}
	for {
		m, payload, err := readShipMsg(r.conn, rbuf)
		if err == io.EOF {
			r.Stop()
			return nil // clean shutdown at a frame boundary
		}
		if err == nil {
			err = r.apply(&m)
		}
		if err != nil {
			return fail(err)
		}
		rbuf = payload
		r.bytes.Add(uint64(len(payload)))
	}
}

// sendHello reports every replicated file's current size so the shipper
// resumes instead of re-shipping.
func (r *Receiver) sendHello() error {
	ls, err := wal.ListDir(fault.OS, r.dir)
	if err != nil {
		return err
	}
	hello := shipMsg{kind: msgHello}
	for _, rel := range ls.Rels() {
		fi, err := os.Stat(filepath.Join(r.dir, filepath.FromSlash(rel)))
		if err != nil {
			return err
		}
		hello.files = append(hello.files, fileSize{path: rel, size: uint64(fi.Size())})
	}
	_, err = writeShipMsg(r.conn, nil, &hello)
	return err
}

// apply executes one shipped mutation. Offsets must meet the file's current
// size exactly — a gap means frames were lost, which framing makes
// impossible on a live connection, so it is a protocol violation.
func (r *Receiver) apply(m *shipMsg) error {
	path := filepath.Join(r.dir, filepath.FromSlash(m.path)) // parse vetted m.path
	switch m.kind {
	case msgClock:
		off := time.Now().UnixNano() - int64(m.n)
		if !r.clockSet || off < r.clockOff.Load() {
			r.clockOff.Store(off)
			r.clockSet = true
		}
		return nil
	case msgAppend:
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			return err
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o666)
		if err != nil {
			return err
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		if off := int64(m.n); off > fi.Size() {
			return fmt.Errorf("append gap in %q: offset %d past size %d", m.path, off, fi.Size())
		}
		if _, err := f.WriteAt(m.data, int64(m.n)); err != nil {
			return err
		}
		return f.Close()
	case msgTruncate:
		if err := os.Truncate(path, int64(m.n)); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	case msgDelete:
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	return fmt.Errorf("unexpected ship message kind %d", m.kind)
}

// ShipService runs a Shipper per accepted connection — the leader-side
// listener cmd/stmserve exposes with -ship.
type ShipService struct {
	ln   net.Listener
	dir  string
	opts ShipperOptions

	mu       sync.Mutex
	shippers map[*Shipper]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// ServeShipping accepts follower connections on ln and ships dir to each.
func ServeShipping(ln net.Listener, dir string, opts ShipperOptions) *ShipService {
	svc := &ShipService{ln: ln, dir: dir, opts: opts, shippers: map[*Shipper]struct{}{}}
	svc.wg.Add(1)
	go svc.acceptLoop()
	return svc
}

// Addr returns the listener address.
func (svc *ShipService) Addr() net.Addr { return svc.ln.Addr() }

func (svc *ShipService) acceptLoop() {
	defer svc.wg.Done()
	for {
		conn, err := svc.ln.Accept()
		if err != nil {
			return
		}
		sh := NewShipper(conn, svc.dir, svc.opts)
		svc.mu.Lock()
		if svc.closed {
			svc.mu.Unlock()
			conn.Close()
			return
		}
		svc.shippers[sh] = struct{}{}
		svc.mu.Unlock()
		svc.wg.Add(1)
		go func() {
			defer svc.wg.Done()
			_ = sh.Run() // a failed follower session is the follower's problem
			svc.mu.Lock()
			delete(svc.shippers, sh)
			svc.mu.Unlock()
		}()
	}
}

// Close stops the listener and every active shipping session.
func (svc *ShipService) Close() {
	svc.mu.Lock()
	svc.closed = true
	for sh := range svc.shippers {
		sh.Stop()
	}
	svc.mu.Unlock()
	svc.ln.Close()
	svc.wg.Wait()
}
