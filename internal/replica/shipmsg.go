package replica

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
	"repro/internal/server/wire"
	"repro/internal/wal"
)

// Message kinds on the shipping channel. Each message is one frame (capped
// like the wire protocol's, at wire.MaxFramePayload) whose payload begins
// with the kind byte:
//
//	hello    follower -> leader  u32 n | n × (u16 pathLen | path | u64 size)
//	append   leader -> follower  u16 pathLen | path | u64 offset | bytes
//	truncate leader -> follower  u16 pathLen | path | u64 size
//	delete   leader -> follower  u16 pathLen | path
//	clock    leader -> follower  u64 leader wall clock (UnixNano)
//
// Paths are slash-separated and relative to the log directory; parseShipMsg
// admits only those wal.CheckRel admits, so nothing a peer names can land
// outside the receiver's directory.
const (
	msgHello    = 1
	msgAppend   = 2
	msgTruncate = 3
	msgDelete   = 4
	msgClock    = 6 // 5 is retired (a per-frame ack): parse rejects it, and it must not be reused
)

// fileSize is one hello manifest entry: a replicated file and how many of
// its bytes the follower already holds.
type fileSize struct {
	path string
	size uint64
}

// shipMsg is one decoded shipping-channel message. n is the kind's one
// number: append's offset, truncate's size, clock's nanoseconds.
type shipMsg struct {
	kind  byte
	files []fileSize // hello
	path  string     // append, truncate, delete
	n     uint64
	data  []byte // append; after parseShipMsg it aliases the payload
}

func appendShipPath(dst []byte, path string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(path)))
	return append(dst, path...)
}

// append appends m's payload encoding (unframed) to dst.
func (m *shipMsg) append(dst []byte) []byte {
	dst = append(dst, m.kind)
	switch m.kind {
	case msgHello:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.files)))
		for _, f := range m.files {
			dst = appendShipPath(dst, f.path)
			dst = binary.LittleEndian.AppendUint64(dst, f.size)
		}
	case msgAppend:
		dst = appendShipPath(dst, m.path)
		dst = binary.LittleEndian.AppendUint64(dst, m.n)
		dst = append(dst, m.data...)
	case msgTruncate:
		dst = appendShipPath(dst, m.path)
		dst = binary.LittleEndian.AppendUint64(dst, m.n)
	case msgDelete:
		dst = appendShipPath(dst, m.path)
	case msgClock:
		dst = binary.LittleEndian.AppendUint64(dst, m.n)
	}
	return dst
}

// writeShipMsg frames m in place on buf[:0], writes it to w and returns the
// frame (for its length, and for reuse as the next call's buf). A message
// the peer's reader would reject as over-cap is an error here, before it is
// sent.
func writeShipMsg(w io.Writer, buf []byte, m *shipMsg) ([]byte, error) {
	buf = m.append(frame.Begin(buf[:0]))
	if n := len(buf) - frame.HeaderSize; n > wire.MaxFramePayload {
		return buf, fmt.Errorf("ship message kind %d of %d bytes exceeds the frame cap", m.kind, n)
	}
	frame.Finish(buf, 0)
	_, err := w.Write(buf)
	return buf, err
}

// readShipMsg reads and decodes one message. The payload, which m.data
// aliases, is returned too: its length is the message's size, and it is the
// buffer to pass as buf once m is done with.
func readShipMsg(r io.Reader, buf []byte) (m shipMsg, payload []byte, err error) {
	if payload, err = frame.Read(r, buf, wire.MaxFramePayload); err != nil {
		return m, buf, err
	}
	m, err = parseShipMsg(payload)
	return m, payload, err
}

// shipCursor walks a payload. The first read past the end, or the first
// path the layout validator refuses, latches err instead of indexing out of
// range, so parseShipMsg checks once at the end.
type shipCursor struct {
	p   []byte
	err error
}

var errShipShort = errors.New("truncated")

func (c *shipCursor) take(n int) []byte {
	if c.err != nil || len(c.p) < n {
		c.err = cmp.Or(c.err, errShipShort)
		return nil
	}
	b := c.p[:n]
	c.p = c.p[n:]
	return b
}

func (c *shipCursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *shipCursor) path() string {
	var path string
	if b := c.take(2); b != nil {
		path = string(c.take(int(binary.LittleEndian.Uint16(b))))
	}
	if c.err == nil {
		c.err = wal.CheckRel(path)
	}
	return path
}

// parseShipMsg decodes one message payload: an error or a valid message
// whose every path passed wal.CheckRel, never a panic. Lengths are exact — a
// payload with bytes left over is as malformed as a short one — so
// parse ∘ append is the identity on what it accepts.
func parseShipMsg(payload []byte) (shipMsg, error) {
	c := shipCursor{p: payload}
	var m shipMsg
	if b := c.take(1); b != nil {
		m.kind = b[0]
	}
	switch m.kind {
	case msgHello:
		var n uint32
		if b := c.take(4); b != nil {
			n = binary.LittleEndian.Uint32(b)
		}
		for i := uint32(0); i < n && c.err == nil; i++ {
			m.files = append(m.files, fileSize{path: c.path(), size: c.u64()})
		}
	case msgAppend:
		m.path, m.n = c.path(), c.u64()
		m.data = c.take(len(c.p))
	case msgTruncate:
		m.path, m.n = c.path(), c.u64()
	case msgDelete:
		m.path = c.path()
	case msgClock:
		m.n = c.u64()
	default:
		c.err = cmp.Or(c.err, errors.New("unknown kind"))
	}
	if c.err == nil && len(c.p) != 0 {
		c.err = fmt.Errorf("%d trailing bytes", len(c.p))
	}
	if c.err != nil {
		return m, fmt.Errorf("ship message kind %d (%d bytes): %w", m.kind, len(payload), c.err)
	}
	return m, nil
}
