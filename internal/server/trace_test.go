package server_test

import (
	"encoding/json"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/wal"
)

// TestTraceAttribution drives sampled update transactions through the full
// stack under AckSync with a slow (latency-injected) fsync and checks the
// core tracing contract: for each request, the serial server-stage spans
// must account for at least 90% of the end-to-end wire latency the client
// measured — i.e. the waterfall explains where the time went, it doesn't
// leak it into unattributed gaps.
func TestTraceAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1<<13, 1, reg)
	// A 2ms fsync delay makes sync-wait the dominant stage, the regime the
	// attribution guarantee matters in (and keeps scheduler noise, which is
	// what the unattributed gaps are made of, proportionally small).
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{Ops: fault.OpSync, Delay: 2 * time.Millisecond})
	srv, l, _, addr := startServer(t, t.TempDir(), 2, func(o *wal.Options) {
		o.FS = inj
		o.Obs = reg
		o.Trace = tr
	}, server.Options{Workers: 2, Ack: server.AckSync, Obs: reg, Trace: tr})
	defer l.Close()
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.Close()

	// Request ids are sequential from 1 on a fresh client, so the i-th
	// insert is request i — the decode span's A field maps it to a trace.
	const n = 50
	wall := make([]time.Duration, n+1)
	for i := 1; i <= n; i++ {
		t0 := time.Now()
		ins, err := cl.Insert(uint64(i), uint64(i))
		if err != nil || !ins {
			t.Fatalf("insert %d: ins=%v err=%v", i, ins, err)
		}
		wall[i] = time.Since(t0)
	}

	spans := tr.Spans()
	serial := map[obs.Stage]bool{
		obs.StageQueueWait: true, obs.StageDecode: true, obs.StageExecute: true,
		obs.StageAckStage: true, obs.StageSyncWait: true, obs.StageAckWrite: true,
	}
	attributed := map[uint64]int64{} // trace id -> summed serial-stage ns
	reqTrace := map[uint64]uint64{}  // request id -> trace id
	stageSeen := map[obs.Stage]int{}
	for _, sp := range spans {
		stageSeen[sp.Stage]++
		if serial[sp.Stage] {
			attributed[sp.Trace] += sp.DurNs
		}
		if sp.Stage == obs.StageDecode {
			reqTrace[sp.A] = sp.Trace
		}
	}

	// Cross-layer propagation: the sampled ids must have reached the STM
	// (attempt spans) and the WAL (append + group-commit spans).
	for _, st := range []obs.Stage{obs.StageAttempt, obs.StageWalAppend,
		obs.StageWalCoalesce, obs.StageWalFsync, obs.StageTotal} {
		if stageSeen[st] == 0 {
			t.Errorf("no %v spans recorded", st)
		}
	}

	var ratios []float64
	for i := 1; i <= n; i++ {
		tid := reqTrace[uint64(i)]
		if tid == 0 {
			t.Fatalf("request %d has no decode span (ring too small?)", i)
		}
		ratios = append(ratios, float64(attributed[tid])/float64(wall[i].Nanoseconds()))
	}
	sort.Float64s(ratios)
	if med := ratios[len(ratios)/2]; med < 0.90 {
		t.Fatalf("median stage coverage %.2f of wire latency, want >= 0.90 (min %.2f max %.2f)",
			med, ratios[0], ratios[len(ratios)-1])
	}

	// The same spans must be fetchable over the wire (OpTrace).
	blob, err := cl.TraceBlob()
	if err != nil {
		t.Fatalf("TraceBlob: %v", err)
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("OpTrace blob not a trace dump: %v", err)
	}
	if dump.Version != obs.TraceVersion || dump.Every != 1 || len(dump.Spans) == 0 {
		t.Fatalf("OpTrace dump diverged: v%d every=%d %d spans", dump.Version, dump.Every, len(dump.Spans))
	}
}

// TestTraceOffByDefault pins the zero-config behavior: no tracer, no spans,
// and OpTrace still answers with a valid, obviously-off document.
func TestTraceOffByDefault(t *testing.T) {
	srv, l, _, addr := startServer(t, t.TempDir(), 2, nil, server.Options{Workers: 2})
	defer l.Close()
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.Close()
	if _, err := cl.Insert(1, 1); err != nil {
		t.Fatalf("insert: %v", err)
	}
	blob, err := cl.TraceBlob()
	if err != nil {
		t.Fatalf("TraceBlob: %v", err)
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if dump.Every != 0 || len(dump.Spans) != 0 {
		t.Fatalf("untraced server returned every=%d %d spans", dump.Every, len(dump.Spans))
	}
}

// TestOversizedTraceAnswersTooLarge: with a full 8192-span ring the trace
// dump is ~1.6 MB of JSON, over the 1 MiB frame cap. The server must answer
// a well-formed StatusTooLarge — not emit a frame the client's reader
// rejects as corrupt, which costs the connection — and the next request on
// the same connection must still succeed.
func TestOversizedTraceAnswersTooLarge(t *testing.T) {
	const ring = 8192
	tr := obs.NewTracer(ring, 1, nil)
	now := time.Now().UnixNano()
	for i := uint64(1); i <= ring; i++ {
		tr.Record(i, obs.StageExecute, i, now, 1000, i, i)
	}
	if blob, err := tr.JSON(); err != nil || len(blob) <= wire.MaxFramePayload {
		t.Fatalf("fixture too small to exercise the cap: %d bytes (err=%v)", len(blob), err)
	}
	srv, l, _, addr := startServer(t, t.TempDir(), 1, nil, server.Options{Workers: 1, Trace: tr})
	defer l.Close()
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.Close()
	if blob, err := cl.TraceBlob(); !errors.Is(err, client.ErrTooLarge) {
		t.Fatalf("TraceBlob over the cap: %d bytes, err=%v; want client.ErrTooLarge", len(blob), err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection did not survive the oversized response: %v", err)
	}
	if _, err := cl.StatsBlob(); err != nil {
		t.Fatalf("StatsBlob after the oversized response: %v", err)
	}
}
