package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/ds"
	"repro/internal/obs"
	"repro/internal/stm"
)

// The traced pass records a span around every call the benchmark makes into a
// layer. Spans live in preallocated per-goroutine rings (no sharing, no
// atomics on the recording path) and are written to out/trace.json when the
// pass ends. Spans inside internal/ are a later issue; the one exception is
// the server's already-existing obs.Tracer, whose spans are merged in.

// span is one call into a layer. OpID is the root span's ID, shared by every
// span of one operation.
type span struct {
	Workload string `json:"workload,omitempty"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	OpID     uint64 `json:"op_id"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

const traceRing = 1 << 14 // spans kept per driver goroutine

// tctx is one driver goroutine's tracing state. A nil *tctx traces nothing,
// so untraced runs pass nil and pay one nil check per operation.
type tctx struct {
	ring  []span
	n     uint64 // spans written so far; the ring keeps the last len(ring)
	every uint64 // sample one operation in every
	ctr   uint64
	base  uint64 // high bits of this goroutine's span IDs
	next  uint64
	open  []span // stack of open spans; empty while the current op is unsampled
}

// Span ids are unique across one run: workload index, then the recording
// goroutine (serverSrc for spans taken from the server's tracer), then a
// counter.
const serverSrc = 0xff

func idBase(wlIdx, src int) uint64 { return uint64(wlIdx+1)<<56 | uint64(src)<<48 }

func fromServer(s span) bool { return s.ID>>48&0xff == serverSrc }

func newTctx(wlIdx, worker int, every uint64) *tctx {
	return &tctx{
		ring:  make([]span, traceRing),
		every: every,
		base:  idBase(wlIdx, worker+1),
		open:  make([]span, 0, 8),
	}
}

// beginOp opens the root span of the next operation if it is sampled.
func (t *tctx) beginOp(name string) {
	if t == nil {
		return
	}
	t.ctr++
	if t.ctr%t.every != 0 {
		return
	}
	t.enter("bench", name)
}

// enter opens a child span of the innermost open span. It is a no-op while
// the current operation is unsampled (enter is only reached with an empty
// stack from beginOp).
func (t *tctx) enter(layer, name string) {
	t.next++
	s := span{ID: t.base | t.next, Layer: layer, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent, s.OpID = t.open[n-1].ID, t.open[0].ID
	} else {
		s.OpID = s.ID
	}
	s.StartNs = nowNs()
	t.open = append(t.open, s)
}

// leave closes the innermost open span and records it.
func (t *tctx) leave() {
	n := len(t.open) - 1
	s := t.open[n]
	t.open = t.open[:n]
	s.EndNs = nowNs()
	t.ring[t.n%uint64(len(t.ring))] = s
	t.n++
}

// active reports whether the current operation is being traced.
func (t *tctx) active() bool { return t != nil && len(t.open) > 0 }

// call runs f inside a span when the current operation is traced.
func (t *tctx) call(layer, name string, f func()) {
	if !t.active() {
		f()
		return
	}
	t.enter(layer, name)
	f()
	t.leave()
}

// endOp closes the root span opened by beginOp, if any.
func (t *tctx) endOp() {
	if t.active() {
		t.leave()
	}
}

// spans returns the ring's surviving spans. Children are recorded before
// their parents, so a surviving child's parent always survives too.
func (t *tctx) spans() []span {
	if t == nil {
		return nil
	}
	if t.n <= uint64(len(t.ring)) {
		return t.ring[:t.n]
	}
	return t.ring
}

// tracedThread records a span around Atomic/ReadOnly of the wrapped thread.
type tracedThread struct {
	stm.Thread
	t     *tctx
	layer string
}

func (d tracedThread) Atomic(fn func(stm.Txn)) bool {
	if !d.t.active() {
		return d.Thread.Atomic(fn)
	}
	d.t.enter(d.layer, "Atomic")
	defer d.t.leave()
	return d.Thread.Atomic(fn)
}

func (d tracedThread) ReadOnly(fn func(stm.Txn)) bool {
	if !d.t.active() {
		return d.Thread.ReadOnly(fn)
	}
	d.t.enter(d.layer, "ReadOnly")
	defer d.t.leave()
	return d.Thread.ReadOnly(fn)
}

// tracedMap records a span around each *Tx call of the wrapped map. A TM
// abort unwinds through these frames, so the spans close in defers; an
// aborted attempt therefore shows as its own (short) span.
type tracedMap struct {
	ds.Map
	t     *tctx
	layer string
}

func (d tracedMap) InsertTx(tx stm.Txn, key, val uint64) bool {
	if !d.t.active() {
		return d.Map.InsertTx(tx, key, val)
	}
	d.t.enter(d.layer, "InsertTx")
	defer d.t.leave()
	return d.Map.InsertTx(tx, key, val)
}

func (d tracedMap) DeleteTx(tx stm.Txn, key uint64) bool {
	if !d.t.active() {
		return d.Map.DeleteTx(tx, key)
	}
	d.t.enter(d.layer, "DeleteTx")
	defer d.t.leave()
	return d.Map.DeleteTx(tx, key)
}

func (d tracedMap) SearchTx(tx stm.Txn, key uint64) (uint64, bool) {
	if !d.t.active() {
		return d.Map.SearchTx(tx, key)
	}
	d.t.enter(d.layer, "SearchTx")
	defer d.t.leave()
	return d.Map.SearchTx(tx, key)
}

func (d tracedMap) RangeTx(tx stm.Txn, lo, hi uint64) (int, uint64) {
	if !d.t.active() {
		return d.Map.RangeTx(tx, lo, hi)
	}
	d.t.enter(d.layer, "RangeTx")
	defer d.t.leave()
	return d.Map.RangeTx(tx, lo, hi)
}

// traceThread and traceMap wrap only when tracing, so the untraced pass runs
// the bare values.
func traceThread(th stm.Thread, t *tctx, layer string) stm.Thread {
	if t == nil {
		return th
	}
	return tracedThread{th, t, layer}
}

func traceMap(m ds.Map, t *tctx, layer string) ds.Map {
	if t == nil {
		return m
	}
	return tracedMap{m, t, layer}
}

// serverSpans converts the server tracer's ring into benchmark spans. The
// server stages partition a request's "total" span; STM attempts and the WAL
// append sit inside execute, WAL coalesce/fsync inside sync-wait. Traces
// whose total span has left the ring are dropped so every parent exists.
func serverSpans(tr *obs.Tracer, wlIdx int) []span {
	base := idBase(wlIdx, serverSrc)
	byTrace := map[uint64][]obs.Span{}
	for _, sp := range tr.Spans() {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	var out []span
	for _, sps := range byTrace {
		id := func(sp obs.Span) uint64 { return base | sp.Seq }
		parents := map[obs.Stage]uint64{}
		for _, sp := range sps {
			switch sp.Stage {
			case obs.StageTotal, obs.StageExecute, obs.StageSyncWait:
				parents[sp.Stage] = id(sp)
			}
		}
		root, ok := parents[obs.StageTotal]
		if !ok {
			continue
		}
		for _, sp := range sps {
			s := span{ID: id(sp), Parent: root, OpID: root, Layer: "server", Name: sp.Stage.String(),
				StartNs: sp.StartNs, EndNs: sp.StartNs + sp.DurNs}
			under := func(st obs.Stage) {
				if p, ok := parents[st]; ok {
					s.Parent = p
				}
			}
			switch sp.Stage {
			case obs.StageTotal:
				s.Parent = 0
			case obs.StageDecode:
				s.Layer = "wire"
			case obs.StageAttempt:
				s.Layer = "mvstm"
				under(obs.StageExecute)
			case obs.StageWalAppend:
				s.Layer = "wal"
				under(obs.StageExecute)
			case obs.StageWalCoalesce, obs.StageWalFsync:
				s.Layer = "wal"
				under(obs.StageSyncWait)
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per layer, the mean self time in nanoseconds per traced
// operation: a span's duration minus the part its direct children cover.
// The server's request spans and the benchmark's own are separate operations
// (their ids cannot be correlated from outside), so each set is averaged
// over its own root count.
func selfTimes(spans []span) map[string]float64 {
	children := map[uint64]int64{}
	roots := map[bool]float64{} // keyed by fromServer
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		} else {
			roots[fromServer(s)]++
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		d := s.EndNs - s.StartNs - children[s.ID]
		if d < 0 { // overlay spans (WAL fsync) can outlast the stage they sit in
			d = 0
		}
		self[s.Layer] += float64(d) / roots[fromServer(s)]
	}
	return self
}

// traceFile is the shape of out/trace.json.
type traceFile struct {
	Seed  uint64 `json:"seed"`
	Spans []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	sort.Slice(tf.Spans, func(i, j int) bool { return tf.Spans[i].StartNs < tf.Spans[j].StartNs })
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
