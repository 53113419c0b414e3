// Package wire defines the length-prefixed binary protocol spoken between
// cmd/stmserve and internal/server/client: the frame format, request and
// response encodings, and the status codes the server maps wal.Health onto.
// It is a leaf package (stdlib only) so both ends — and any future tooling —
// share one encoding without dragging the TM stack into the import graph.
//
// # Frame format
//
// Every message travels in one internal/frame frame, capped at
// MaxFramePayload. A frame whose length exceeds the cap or whose checksum
// mismatches is a protocol violation: the receiver drops the connection
// rather than resynchronize — TCP already guarantees integrity, so a bad
// checksum means a torn write (a fault-injected or real partial send) and
// the peer cannot know where the next frame starts. A writer therefore never
// emits a frame over the cap: AppendResponseFrame answers StatusTooLarge
// instead.
//
// # Requests and responses
//
//	request payload:  u64 id | u8 op | body
//	response payload: u64 id | u8 op | u8 status | body
//
// The id is a client-chosen correlation token: the server answers every
// fully received request exactly once, but — because update acks ride the
// group-commit pipeline while reads are answered at once — responses may
// arrive out of order. Response bodies are present only for
// StatusOK; every other status closes the request with an empty body.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
)

const (
	// MaxFramePayload bounds a frame's payload; larger prefixes are
	// rejected before any allocation (same defense as the WAL's record
	// length bound).
	MaxFramePayload = 1 << 20
	// MaxBatchOps bounds the operations in one batched transaction.
	MaxBatchOps = 1024
)

// Op identifies one request kind.
type Op byte

const (
	// OpPing is a liveness round-trip (empty body both ways).
	OpPing Op = 1 + iota
	// OpInsert adds Key→Val if absent (body: key, val; reply: u8 inserted).
	OpInsert
	// OpDelete removes Key (body: key; reply: u8 deleted).
	OpDelete
	// OpSearch looks up Key (body: key; reply: u8 found | u64 val).
	OpSearch
	// OpRange counts keys in [Key, Val] — a cross-shard snapshot read
	// (body: lo, hi; reply: u64 count | u64 keySum).
	OpRange
	// OpSize counts all keys — a cross-shard snapshot read (empty body;
	// reply: u64 n).
	OpSize
	// OpBatch runs a batch of point mutations as ONE atomic update
	// transaction. All keys must route to one shard; a mixed batch is
	// refused with StatusCrossShard before executing anything.
	// Body: u16 n | n × (u8 kind{1=insert,2=delete} | u64 key | u64 val);
	// reply: n × u8 per-op result, in batch order.
	OpBatch
	// OpStats requests a metrics snapshot (empty body; reply: the server's
	// obs.Registry snapshot as JSON bytes). The blob is self-describing
	// (it carries a version field) so tooling like stmctl top can evolve
	// independently of the binary protocol.
	OpStats
	// OpTrace requests the server's sampled-trace span ring (empty body;
	// reply: the obs.Tracer dump as JSON bytes, versioned like OpStats).
	OpTrace
)

func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpSearch:
		return "search"
	case OpRange:
		return "range"
	case OpSize:
		return "size"
	case OpBatch:
		return "batch"
	case OpStats:
		return "stats"
	case OpTrace:
		return "trace"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Status is the server's verdict on one request.
type Status byte

const (
	// StatusOK: the operation executed; for updates under the default ack
	// policy, the fsync covering its commit has completed.
	StatusOK Status = iota
	// StatusAborted: the transaction starved at the TM's attempt bound or
	// the log is rejecting mutations (DegradeReject). Nothing was applied;
	// safe to retry.
	StatusAborted
	// StatusCrossShard: a batch touched keys of more than one shard.
	// Cross-shard update transactions do not exist in this system (see
	// internal/shard); nothing was applied.
	StatusCrossShard
	// StatusDegraded maps wal.Health Degraded: the commit applied in
	// memory but the log could not confirm durability before the stall
	// timeout. The write may yet be acked by a later successful fsync.
	StatusDegraded
	// StatusSevered maps wal.Health Severed: the log is terminally gone;
	// in-memory state served until shutdown but durability is over.
	StatusSevered
	// StatusBadRequest: the frame parsed but the request was malformed
	// (unknown op, oversized batch, truncated body).
	StatusBadRequest
	// StatusReadOnly: the server is a follower replica; update transactions
	// must go to the leader. Nothing was applied; reads are still served.
	StatusReadOnly
	// StatusTooLarge: the response body (a stats or trace blob) would not
	// fit in one frame. The request executed; ask for less.
	StatusTooLarge
	// StatusBusy: the server is at its connection limit. It is the whole
	// conversation: sent once, under request id 0, on a connection the
	// server then closes without reading from it — nothing sent on that
	// connection was executed.
	StatusBusy
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAborted:
		return "aborted"
	case StatusCrossShard:
		return "cross-shard"
	case StatusDegraded:
		return "degraded"
	case StatusSevered:
		return "severed"
	case StatusBadRequest:
		return "bad-request"
	case StatusReadOnly:
		return "read-only"
	case StatusTooLarge:
		return "too-large"
	case StatusBusy:
		return "busy"
	}
	return fmt.Sprintf("status(%d)", byte(s))
}

// ErrCorruptFrame marks a frame whose checksum or length field is invalid;
// the connection is unusable past it.
var ErrCorruptFrame = frame.ErrCorrupt

// AppendFrame appends one framed payload to dst and returns the extended
// slice.
func AppendFrame(dst, payload []byte) []byte { return frame.Append(dst, payload) }

// ReadFrame reads one frame of at most MaxFramePayload bytes from r and
// returns its payload, reusing buf when it is large enough; see frame.Read
// for the io.EOF / io.ErrUnexpectedEOF / ErrCorruptFrame distinction.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	return frame.Read(r, buf, MaxFramePayload)
}

// NewReader returns a buffered reader of frames of at most MaxFramePayload
// bytes from r: what a connection's receiving side reads through, so that
// one read on the socket yields every frame already received. See
// frame.Reader.
func NewReader(r io.Reader) *frame.Reader { return frame.NewReader(r, MaxFramePayload) }

// BatchOp is one mutation of an OpBatch transaction.
type BatchOp struct {
	Del      bool // true = delete Key, false = insert Key→Val
	Key, Val uint64
}

// Request is one decoded request. Key/Val hold the op's arguments (for
// OpRange, lo and hi); Batch is set only for OpBatch.
type Request struct {
	ID       uint64
	Op       Op
	Key, Val uint64
	Batch    []BatchOp
}

// AppendRequest appends req's payload encoding (unframed) to dst.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, req.ID)
	dst = append(dst, byte(req.Op))
	switch req.Op {
	case OpInsert:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
		dst = binary.LittleEndian.AppendUint64(dst, req.Val)
	case OpDelete, OpSearch:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
	case OpRange:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
		dst = binary.LittleEndian.AppendUint64(dst, req.Val)
	case OpBatch:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(req.Batch)))
		for _, b := range req.Batch {
			kind := byte(1)
			if b.Del {
				kind = 2
			}
			dst = append(dst, kind)
			dst = binary.LittleEndian.AppendUint64(dst, b.Key)
			dst = binary.LittleEndian.AppendUint64(dst, b.Val)
		}
	}
	return dst
}

// ParseRequest decodes one request payload. The returned Request's Batch
// slice is freshly allocated (the payload buffer is reused by the reader).
func ParseRequest(p []byte) (Request, error) {
	var req Request
	if len(p) < 9 {
		return req, fmt.Errorf("wire: request payload too short (%d bytes)", len(p))
	}
	req.ID = binary.LittleEndian.Uint64(p[0:8])
	req.Op = Op(p[8])
	body := p[9:]
	need := func(n int) bool { return len(body) == n }
	switch req.Op {
	case OpPing, OpSize, OpStats, OpTrace:
		if !need(0) {
			return req, fmt.Errorf("wire: %s body has %d trailing bytes", req.Op, len(body))
		}
	case OpDelete, OpSearch:
		if !need(8) {
			return req, fmt.Errorf("wire: %s body length %d, want 8", req.Op, len(body))
		}
		req.Key = binary.LittleEndian.Uint64(body)
	case OpInsert, OpRange:
		if !need(16) {
			return req, fmt.Errorf("wire: %s body length %d, want 16", req.Op, len(body))
		}
		req.Key = binary.LittleEndian.Uint64(body[0:8])
		req.Val = binary.LittleEndian.Uint64(body[8:16])
	case OpBatch:
		if len(body) < 2 {
			return req, errors.New("wire: batch body truncated")
		}
		n := int(binary.LittleEndian.Uint16(body[0:2]))
		body = body[2:]
		if n > MaxBatchOps {
			return req, fmt.Errorf("wire: batch of %d ops exceeds limit %d", n, MaxBatchOps)
		}
		if len(body) != n*17 {
			return req, fmt.Errorf("wire: batch body length %d, want %d", len(body), n*17)
		}
		req.Batch = make([]BatchOp, n)
		for i := 0; i < n; i++ {
			rec := body[i*17 : (i+1)*17]
			switch rec[0] {
			case 1:
				// insert
			case 2:
				req.Batch[i].Del = true
			default:
				return req, fmt.Errorf("wire: batch op kind %d", rec[0])
			}
			req.Batch[i].Key = binary.LittleEndian.Uint64(rec[1:9])
			req.Batch[i].Val = binary.LittleEndian.Uint64(rec[9:17])
		}
	default:
		return req, fmt.Errorf("wire: unknown op %d", byte(req.Op))
	}
	return req, nil
}

// Response is one decoded response. OK carries the boolean result of point
// ops (inserted/deleted/found), Val the found value, Count/Sum the
// range/size results, Results the per-op outcomes of a batch, and Blob the
// opaque payload of a stats snapshot.
type Response struct {
	ID      uint64
	Op      Op
	Status  Status
	OK      bool
	Val     uint64
	Count   uint64
	Sum     uint64
	Results []bool
	Blob    []byte
}

// AppendResponse appends resp's payload encoding (unframed) to dst.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, resp.ID)
	dst = append(dst, byte(resp.Op), byte(resp.Status))
	if resp.Status != StatusOK {
		return dst
	}
	b2u := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	switch resp.Op {
	case OpInsert, OpDelete:
		dst = append(dst, b2u(resp.OK))
	case OpSearch:
		dst = append(dst, b2u(resp.OK))
		dst = binary.LittleEndian.AppendUint64(dst, resp.Val)
	case OpRange:
		dst = binary.LittleEndian.AppendUint64(dst, resp.Count)
		dst = binary.LittleEndian.AppendUint64(dst, resp.Sum)
	case OpSize:
		dst = binary.LittleEndian.AppendUint64(dst, resp.Count)
	case OpBatch:
		for _, r := range resp.Results {
			dst = append(dst, b2u(r))
		}
	case OpStats, OpTrace:
		dst = append(dst, resp.Blob...)
	}
	return dst
}

// AppendResponseFrame appends resp as one frame, encoded in place. A
// response whose payload would exceed MaxFramePayload — which the peer's
// ReadFrame rejects as corrupt, killing the connection — goes out as an
// empty-bodied StatusTooLarge instead.
func AppendResponseFrame(dst []byte, resp *Response) []byte {
	at := len(dst)
	dst = AppendResponse(frame.Begin(dst), resp)
	if len(dst)-at-frame.HeaderSize > MaxFramePayload {
		dst = AppendResponse(dst[:at+frame.HeaderSize],
			&Response{ID: resp.ID, Op: resp.Op, Status: StatusTooLarge})
	}
	frame.Finish(dst, at)
	return dst
}

// ParseResponse decodes one response payload. The Results slice is freshly
// allocated.
func ParseResponse(p []byte) (Response, error) {
	var resp Response
	if len(p) < 10 {
		return resp, fmt.Errorf("wire: response payload too short (%d bytes)", len(p))
	}
	resp.ID = binary.LittleEndian.Uint64(p[0:8])
	resp.Op = Op(p[8])
	resp.Status = Status(p[9])
	body := p[10:]
	if resp.Status != StatusOK {
		if len(body) != 0 {
			return resp, fmt.Errorf("wire: %s response has %d trailing bytes", resp.Status, len(body))
		}
		return resp, nil
	}
	switch resp.Op {
	case OpPing:
		if len(body) != 0 {
			return resp, errors.New("wire: ping response body")
		}
	case OpInsert, OpDelete:
		if len(body) != 1 {
			return resp, fmt.Errorf("wire: %s response body length %d, want 1", resp.Op, len(body))
		}
		resp.OK = body[0] != 0
	case OpSearch:
		if len(body) != 9 {
			return resp, fmt.Errorf("wire: search response body length %d, want 9", len(body))
		}
		resp.OK = body[0] != 0
		resp.Val = binary.LittleEndian.Uint64(body[1:9])
	case OpRange:
		if len(body) != 16 {
			return resp, fmt.Errorf("wire: range response body length %d, want 16", len(body))
		}
		resp.Count = binary.LittleEndian.Uint64(body[0:8])
		resp.Sum = binary.LittleEndian.Uint64(body[8:16])
	case OpSize:
		if len(body) != 8 {
			return resp, fmt.Errorf("wire: size response body length %d, want 8", len(body))
		}
		resp.Count = binary.LittleEndian.Uint64(body)
	case OpBatch:
		resp.Results = make([]bool, len(body))
		for i, b := range body {
			resp.Results[i] = b != 0
		}
	case OpStats, OpTrace:
		resp.Blob = append([]byte(nil), body...)
	default:
		return resp, fmt.Errorf("wire: unknown op %d in response", byte(resp.Op))
	}
	return resp, nil
}
