package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpInsert, Key: 7, Val: 70},
		{ID: 3, Op: OpDelete, Key: 7},
		{ID: 4, Op: OpSearch, Key: 9},
		{ID: 5, Op: OpRange, Key: 1, Val: 100},
		{ID: 6, Op: OpSize},
		{ID: 7, Op: OpBatch, Batch: []BatchOp{
			{Key: 1, Val: 2}, {Del: true, Key: 3}, {Key: 4, Val: 5},
		}},
		{ID: 8, Op: OpBatch, Batch: []BatchOp{}},
		{ID: 9, Op: OpStats},
		{ID: 10, Op: OpTrace},
	}
	for _, want := range reqs {
		got, err := ParseRequest(AppendRequest(nil, &want))
		if err != nil {
			t.Fatalf("%s: parse: %v", want.Op, err)
		}
		if got.ID != want.ID || got.Op != want.Op || got.Key != want.Key || got.Val != want.Val {
			t.Fatalf("%s: got %+v want %+v", want.Op, got, want)
		}
		if len(got.Batch) != len(want.Batch) || (len(want.Batch) > 0 && !reflect.DeepEqual(got.Batch, want.Batch)) {
			t.Fatalf("%s: batch %+v want %+v", want.Op, got.Batch, want.Batch)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpInsert, OK: true},
		{ID: 3, Op: OpSearch, OK: true, Val: 42},
		{ID: 4, Op: OpRange, Count: 10, Sum: 55},
		{ID: 5, Op: OpSize, Count: 99},
		{ID: 6, Op: OpBatch, Results: []bool{true, false, true}},
		{ID: 7, Op: OpInsert, Status: StatusSevered},
		{ID: 8, Op: OpBatch, Status: StatusCrossShard},
		{ID: 9, Op: OpStats, Blob: []byte(`{"version":1}`)},
		{ID: 10, Op: OpTrace, Blob: []byte(`{"version":1,"every":4,"spans":[]}`)},
	}
	for _, want := range resps {
		got, err := ParseResponse(AppendResponse(nil, &want))
		if err != nil {
			t.Fatalf("%s/%s: parse: %v", want.Op, want.Status, err)
		}
		if got.ID != want.ID || got.Op != want.Op || got.Status != want.Status ||
			got.OK != want.OK || got.Val != want.Val || got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("%s: got %+v want %+v", want.Op, got, want)
		}
		if len(want.Results) > 0 && want.Status == StatusOK && !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: results %v want %v", want.Op, got.Results, want.Results)
		}
		if len(want.Blob) > 0 && !reflect.DeepEqual(got.Blob, want.Blob) {
			t.Fatalf("%s: blob %q want %q", want.Op, got.Blob, want.Blob)
		}
	}
}

func TestReadFrameErrors(t *testing.T) {
	payload := AppendRequest(nil, &Request{ID: 1, Op: OpSearch, Key: 5})
	frame := AppendFrame(nil, payload)

	// Intact frame round-trips, reusing the caller's buffer.
	got, err := ReadFrame(bytes.NewReader(frame), make([]byte, 0, 64))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact frame: err=%v", err)
	}
	// A torn frame (any proper prefix) is io.ErrUnexpectedEOF — except an
	// empty stream, which is a clean io.EOF boundary.
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream err = %v, want io.EOF", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		if _, err := ReadFrame(bytes.NewReader(frame[:cut]), nil); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// Checksum and length violations are ErrCorruptFrame.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xff
	if _, err := ReadFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("flipped payload err = %v, want ErrCorruptFrame", err)
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(huge), nil); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversized length err = %v, want ErrCorruptFrame", err)
	}
}

// TestGoldenBytes pins every op's request and response encoding (and the
// frame around one) to hex generated before the framing moved to
// internal/frame: the refactor changed no byte on the wire.
func TestGoldenBytes(t *testing.T) {
	check := func(name string, got []byte, want string) {
		t.Helper()
		if hex.EncodeToString(got) != want {
			t.Errorf("%s: %x want %s", name, got, want)
		}
	}
	check("frame", AppendFrame(nil, []byte("multiverse")), "0a00000088ee112b6d756c74697665727365")
	for _, g := range []struct {
		req  Request
		want string
	}{
		{Request{ID: 1, Op: OpPing}, "010000000000000001"},
		{Request{ID: 2, Op: OpInsert, Key: 7, Val: 70}, "02000000000000000207000000000000004600000000000000"},
		{Request{ID: 3, Op: OpDelete, Key: 7}, "0300000000000000030700000000000000"},
		{Request{ID: 4, Op: OpSearch, Key: 9}, "0400000000000000040900000000000000"},
		{Request{ID: 5, Op: OpRange, Key: 1, Val: 100}, "05000000000000000501000000000000006400000000000000"},
		{Request{ID: 6, Op: OpSize}, "060000000000000006"},
		{Request{ID: 7, Op: OpBatch, Batch: []BatchOp{{Key: 1, Val: 2}, {Del: true, Key: 3}}},
			"070000000000000007020001010000000000000002000000000000000203000000000000000000000000000000"},
		{Request{ID: 8, Op: OpStats}, "080000000000000008"},
		{Request{ID: 9, Op: OpTrace}, "090000000000000009"},
	} {
		check("request "+g.req.Op.String(), AppendRequest(nil, &g.req), g.want)
	}
	for _, g := range []struct {
		resp Response
		want string
	}{
		{Response{ID: 1, Op: OpPing}, "01000000000000000100"},
		{Response{ID: 2, Op: OpInsert, OK: true}, "0200000000000000020001"},
		{Response{ID: 3, Op: OpDelete}, "0300000000000000030000"},
		{Response{ID: 4, Op: OpSearch, OK: true, Val: 42}, "04000000000000000400012a00000000000000"},
		{Response{ID: 5, Op: OpRange, Count: 10, Sum: 55}, "050000000000000005000a000000000000003700000000000000"},
		{Response{ID: 6, Op: OpSize, Count: 99}, "060000000000000006006300000000000000"},
		{Response{ID: 7, Op: OpBatch, Results: []bool{true, false}}, "070000000000000007000100"},
		{Response{ID: 8, Op: OpStats, Blob: []byte(`{"version":1}`)}, "080000000000000008007b2276657273696f6e223a317d"},
		{Response{ID: 9, Op: OpTrace, Blob: []byte(`{"spans":[]}`)}, "090000000000000009007b227370616e73223a5b5d7d"},
		{Response{ID: 10, Op: OpInsert, Status: StatusSevered}, "0a000000000000000204"},
	} {
		check("response "+g.resp.Op.String(), AppendResponse(nil, &g.resp), g.want)
		framed := AppendResponseFrame(nil, &g.resp)
		if !bytes.Equal(framed, AppendFrame(nil, AppendResponse(nil, &g.resp))) {
			t.Errorf("response %s: AppendResponseFrame differs from AppendFrame∘AppendResponse", g.resp.Op)
		}
	}
}

// TestResponseFrameNeverExceedsCap: a blob that would not fit one frame goes
// out as an empty-bodied StatusTooLarge the peer's ReadFrame accepts — never
// as a frame it would reject as corrupt. One byte under the limit still
// ships whole.
func TestResponseFrameNeverExceedsCap(t *testing.T) {
	const overhead = 10 // id + op + status
	for _, tc := range []struct {
		blob int
		want Status
	}{
		{MaxFramePayload - overhead, StatusOK},
		{MaxFramePayload - overhead + 1, StatusTooLarge},
		{3 * MaxFramePayload, StatusTooLarge},
	} {
		resp := Response{ID: 77, Op: OpTrace, Blob: make([]byte, tc.blob)}
		framed := AppendResponseFrame([]byte("earlier frame"), &resp)
		payload, err := ReadFrame(bytes.NewReader(framed[len("earlier frame"):]), nil)
		if err != nil {
			t.Fatalf("blob %d: reader rejected the writer's frame: %v", tc.blob, err)
		}
		got, err := ParseResponse(payload)
		if err != nil || got.ID != 77 || got.Op != OpTrace || got.Status != tc.want {
			t.Fatalf("blob %d: got %+v err=%v, want status %s", tc.blob, got, err, tc.want)
		}
		if tc.want != StatusOK && len(got.Blob) != 0 {
			t.Fatalf("blob %d: non-OK response carries a body", tc.blob)
		}
	}
}

// FuzzParseRequest: a payload parses to an error or to a request whose
// re-encoding is the payload, byte for byte; never a panic, and the batch it
// allocates is bounded by MaxBatchOps.
func FuzzParseRequest(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{ID: 1, Op: OpPing}))
	f.Add(AppendRequest(nil, &Request{ID: 2, Op: OpInsert, Key: 7, Val: 70}))
	f.Add(AppendRequest(nil, &Request{ID: 7, Op: OpBatch, Batch: []BatchOp{{Key: 1, Val: 2}, {Del: true, Key: 3}}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		req, err := ParseRequest(p)
		if err != nil {
			return
		}
		if len(req.Batch) > MaxBatchOps {
			t.Fatalf("batch of %d ops accepted", len(req.Batch))
		}
		if again := AppendRequest(nil, &req); !bytes.Equal(again, p) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", p, again)
		}
	})
}

// FuzzParseResponse: a payload parses to an error or to a response that
// survives append → parse unchanged (byte equality is too strong here:
// any nonzero byte decodes as true and re-encodes as 1).
func FuzzParseResponse(f *testing.F) {
	f.Add(AppendResponse(nil, &Response{ID: 1, Op: OpPing}))
	f.Add(AppendResponse(nil, &Response{ID: 4, Op: OpSearch, OK: true, Val: 42}))
	f.Add(AppendResponse(nil, &Response{ID: 7, Op: OpBatch, Results: []bool{true, false}}))
	f.Add(AppendResponse(nil, &Response{ID: 8, Op: OpStats, Blob: []byte(`{"version":1}`)}))
	f.Add(AppendResponse(nil, &Response{ID: 10, Op: OpInsert, Status: StatusTooLarge}))
	f.Fuzz(func(t *testing.T, p []byte) {
		resp, err := ParseResponse(p)
		if err != nil {
			return
		}
		again, err := ParseResponse(AppendResponse(nil, &resp))
		if err != nil {
			t.Fatalf("re-encoded response does not parse: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("round trip changed the value:\n in  %+v\n out %+v", resp, again)
		}
	})
}
