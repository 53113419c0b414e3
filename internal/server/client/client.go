// Package client is the Go client for the stmserve wire protocol: a
// pipelined, connection-per-Client library.
//
// A Client is safe for concurrent use; calls from many goroutines pipeline
// onto the single connection and are correlated back by request id, so N
// goroutines sharing a Client give an outstanding-depth-N pipeline — the
// shape the server's cross-connection group commit amortizes over.
//
// # Outcome taxonomy (what the torture harness leans on)
//
// Every operation resolves to exactly one of:
//
//   - a definite result (nil error, or a definite refusal such as
//     ErrAborted/ErrCrossShard — nothing was applied);
//   - ErrNotSent: the request frame never fully left this process, so the
//     server cannot have executed it;
//   - ErrUnanswered: the request was fully written but the connection died
//     before a response arrived.
//
// On a write failure the client half-closes its write side and keeps
// reading until EOF, so every request the server fully received still
// resolves definitely (the server drains before closing). ErrUnanswered is
// then confined to requests the server never fully received — under the
// socket torture's fault sites (client-side write faults, server-side read
// faults) an unanswered request was therefore never executed, which is what
// makes discarding it from the history sound.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server/wire"
)

// Sentinel errors. Status-mapped errors (ErrAborted, ErrCrossShard,
// ErrDegraded, ErrSevered, ErrBadRequest, ErrReadOnly, ErrTooLarge) are definite server
// verdicts; ErrNotSent/ErrUnanswered are transport outcomes (see package
// comment). ErrBusy is the server refusing the connection at its limit: it
// comes joined to the transport outcome of every request the connection was
// asked to carry, none of which the server read.
var (
	ErrNotSent    = errors.New("client: request not sent")
	ErrUnanswered = errors.New("client: connection closed before response")
	ErrClosed     = errors.New("client: client closed")
	ErrAborted    = errors.New("client: transaction aborted")
	ErrCrossShard = errors.New("client: batch crosses shards")
	ErrDegraded   = errors.New("client: server log degraded, durability unconfirmed")
	ErrSevered    = errors.New("client: server log severed")
	ErrBadRequest = errors.New("client: bad request")
	ErrReadOnly   = errors.New("client: server is a read-only follower; send updates to the leader")
	ErrTooLarge   = errors.New("client: response exceeds the frame cap")
	ErrBusy       = errors.New("client: server is at its connection limit")
)

func statusErr(st wire.Status) error {
	switch st {
	case wire.StatusOK:
		return nil
	case wire.StatusAborted:
		return ErrAborted
	case wire.StatusCrossShard:
		return ErrCrossShard
	case wire.StatusDegraded:
		return ErrDegraded
	case wire.StatusSevered:
		return ErrSevered
	case wire.StatusBadRequest:
		return ErrBadRequest
	case wire.StatusReadOnly:
		return ErrReadOnly
	case wire.StatusTooLarge:
		return ErrTooLarge
	case wire.StatusBusy:
		return ErrBusy
	}
	return fmt.Errorf("client: unknown status %d", byte(st))
}

// Options configures Dial.
type Options struct {
	// Timeout bounds the dial and the Close drain (default 10s).
	Timeout time.Duration
	// Fault, when set, wraps the conn with the injector's schedule under
	// Name — the client-side half of the socket fault seam.
	Fault *fault.Injector
	// Name is the rule-matching path for Fault (default "cli").
	Name string
}

// Client is one pipelined protocol connection.
type Client struct {
	nc net.Conn

	wmu  sync.Mutex
	pbuf []byte
	fbuf []byte
	werr error // sticky: no writes after the first failure

	mu      sync.Mutex
	pending map[uint64]chan wire.Response
	dead    bool
	refused error // why, if the server said so before closing (ErrBusy)

	seq        atomic.Uint64
	readerDone chan struct{}
	timeout    time.Duration
}

// Dial connects to a stmserve address.
func Dial(addr string, o Options) (*Client, error) {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, o.Timeout)
	if err != nil {
		return nil, err
	}
	if o.Fault != nil {
		name := o.Name
		if name == "" {
			name = "cli"
		}
		nc = o.Fault.Conn(nc, name)
	}
	cl := &Client{
		nc:         nc,
		pending:    make(map[uint64]chan wire.Response),
		readerDone: make(chan struct{}),
		timeout:    o.Timeout,
	}
	go cl.readLoop()
	return cl, nil
}

func (cl *Client) readLoop() {
	// Buffered like the server's side: one read on the socket yields every
	// response of a run. ParseResponse copies what it keeps.
	fr := wire.NewReader(cl.nc)
	for {
		payload, err := fr.Next()
		if err != nil {
			break
		}
		resp, perr := wire.ParseResponse(payload)
		if perr != nil {
			break
		}
		cl.mu.Lock()
		if resp.ID == 0 && resp.Status != wire.StatusOK {
			cl.refused = statusErr(resp.Status) // request ids start at 1: this is about the connection
		}
		ch := cl.pending[resp.ID]
		delete(cl.pending, resp.ID)
		cl.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
	cl.mu.Lock()
	cl.dead = true
	for id, ch := range cl.pending {
		delete(cl.pending, id)
		close(ch) // closed channel = unanswered
	}
	cl.mu.Unlock()
	close(cl.readerDone)
}

func (cl *Client) closeWrite() {
	if cw, ok := cl.nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	} else {
		cl.nc.Close()
	}
}

// respChans recycles the one-response channels requests wait on — most of
// the bytes a request used to cost this side. A channel goes back only once
// its response has been received: it is empty then, and the reader dropped
// it from pending before sending, so nobody else holds it. One the reader
// closed (unanswered) or that never got an answer is left to the collector.
var respChans = sync.Pool{New: func() any { return make(chan wire.Response, 1) }}

// do sends one request and waits for its response.
func (cl *Client) do(req *wire.Request) (wire.Response, error) {
	req.ID = cl.seq.Add(1)
	ch := respChans.Get().(chan wire.Response)
	cl.mu.Lock()
	if cl.dead {
		err := cl.down(fmt.Errorf("connection down: %w", ErrNotSent))
		cl.mu.Unlock()
		respChans.Put(ch) // never registered: still ours alone
		return wire.Response{}, err
	}
	cl.pending[req.ID] = ch
	cl.mu.Unlock()

	cl.wmu.Lock()
	if cl.werr != nil {
		cl.wmu.Unlock()
		cl.forget(req.ID)
		return wire.Response{}, fmt.Errorf("after earlier write failure: %w", ErrNotSent)
	}
	cl.pbuf = wire.AppendRequest(cl.pbuf[:0], req)
	cl.fbuf = wire.AppendFrame(cl.fbuf[:0], cl.pbuf)
	if _, err := cl.nc.Write(cl.fbuf); err != nil {
		// The frame is torn or lost; the server will see a framing error,
		// answer everything it fully received, and close. Half-close our
		// write side and let the reader drain those answers to EOF.
		cl.werr = err
		cl.closeWrite()
		cl.wmu.Unlock()
		cl.forget(req.ID)
		return wire.Response{}, fmt.Errorf("write failed (%v): %w", err, ErrNotSent)
	}
	cl.wmu.Unlock()

	resp, ok := <-ch
	if !ok {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return wire.Response{}, cl.down(ErrUnanswered)
	}
	respChans.Put(ch)
	return resp, statusErr(resp.Status)
}

// down is the error of a request the dead connection did not carry through:
// the transport outcome, joined to the server's reason when it gave one.
// Caller holds cl.mu.
func (cl *Client) down(outcome error) error {
	if cl.refused != nil {
		return fmt.Errorf("%w: %w", cl.refused, outcome)
	}
	return outcome
}

func (cl *Client) forget(id uint64) {
	cl.mu.Lock()
	delete(cl.pending, id)
	cl.mu.Unlock()
}

// Ping round-trips an empty request.
func (cl *Client) Ping() error {
	_, err := cl.do(&wire.Request{Op: wire.OpPing})
	return err
}

// Insert adds key→val if absent. The nil-error return means the insert's
// commit is covered by an fsync (under the server's default ack policy).
func (cl *Client) Insert(key, val uint64) (inserted bool, err error) {
	resp, err := cl.do(&wire.Request{Op: wire.OpInsert, Key: key, Val: val})
	return resp.OK, err
}

// Delete removes key.
func (cl *Client) Delete(key uint64) (deleted bool, err error) {
	resp, err := cl.do(&wire.Request{Op: wire.OpDelete, Key: key})
	return resp.OK, err
}

// Search looks up key.
func (cl *Client) Search(key uint64) (val uint64, found bool, err error) {
	resp, err := cl.do(&wire.Request{Op: wire.OpSearch, Key: key})
	return resp.Val, resp.OK, err
}

// Range counts keys in [lo, hi] in one snapshot read across all shards.
func (cl *Client) Range(lo, hi uint64) (count int, keySum uint64, err error) {
	resp, err := cl.do(&wire.Request{Op: wire.OpRange, Key: lo, Val: hi})
	return int(resp.Count), resp.Sum, err
}

// Size counts all keys in one snapshot read across all shards.
func (cl *Client) Size() (int, error) {
	resp, err := cl.do(&wire.Request{Op: wire.OpSize})
	return int(resp.Count), err
}

// Batch runs ops as one atomic update transaction (all keys must live on
// one shard; ErrCrossShard otherwise) and returns the per-op results.
func (cl *Client) Batch(ops []wire.BatchOp) ([]bool, error) {
	resp, err := cl.do(&wire.Request{Op: wire.OpBatch, Batch: ops})
	return resp.Results, err
}

// StatsBlob fetches the server's metrics snapshot as raw JSON bytes.
func (cl *Client) StatsBlob() ([]byte, error) {
	resp, err := cl.do(&wire.Request{Op: wire.OpStats})
	return resp.Blob, err
}

// TraceBlob fetches the server's sampled-trace span ring as raw JSON bytes
// (the obs.Tracer dump; valid-but-empty with every=0 when tracing is off).
func (cl *Client) TraceBlob() ([]byte, error) {
	resp, err := cl.do(&wire.Request{Op: wire.OpTrace})
	return resp.Blob, err
}

// Stats fetches and decodes the server's metrics snapshot.
func (cl *Client) Stats() (obs.Snapshot, error) {
	var snap obs.Snapshot
	blob, err := cl.StatsBlob()
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(blob, &snap); err != nil {
		return snap, fmt.Errorf("client: stats snapshot: %w", err)
	}
	return snap, nil
}

// Close half-closes the write side (the server drains in-flight requests
// and answers them), waits for the reader to hit EOF, then closes the conn.
func (cl *Client) Close() error {
	cl.wmu.Lock()
	if cl.werr == nil {
		cl.werr = ErrClosed
		cl.closeWrite()
	}
	cl.wmu.Unlock()
	select {
	case <-cl.readerDone:
	case <-time.After(cl.timeout):
	}
	return cl.nc.Close()
}
