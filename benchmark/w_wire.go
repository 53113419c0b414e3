package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/wal"
	"repro/internal/workload"
)

const (
	wireConns   = 2
	wireCallers = 8 // synchronous callers per connection
	// That many consecutive round trips of one kind by one caller are one
	// timing sample. Reads need the longer quantum: how many of the other
	// callers happen to be waiting on an fsync decides how contended a read
	// is, and 16 reads do not average that out.
	wireReadQuantum   = 64
	wireUpdateQuantum = 16

	// An update here is acknowledged after 1.7 to 2.2 fsync rounds, and the
	// virtual disk's fsync time wanders by a factor of two between identical
	// runs, in episodes of seconds. So a probe (one 4 KiB write + fsync every
	// probeEvery, beside the WAL) times the disk through every trial, and the
	// update times are scaled to a disk whose probe takes nominalProbe: what
	// update_us reports is the latency at that nominal disk. The unscaled
	// time and the probe are per-layer (server.update_raw_us,
	// wal.fsync_probe_us_p25).
	probeEvery   = 20 * time.Millisecond
	nominalProbe = 250 * time.Microsecond
)

var wireMix = workload.Mix{InsertPct: 0.10, DeletePct: 0.10}

// caller is one synchronous client goroutine of wire-sync.
type caller struct {
	player
	cl *client.Client
}

// wireSync is the wire-sync workload: the durable leader behind internal/server
// on loopback TCP.
type wireSync struct {
	e       *env
	ld      *leader
	srv     *server.Server
	tracer  *obs.Tracer // traced pass only
	clients []*client.Client
	callers []*caller
}

func setupWire(e *env) (instance, error) {
	w := &wireSync{e: e}
	opts := server.Options{Workers: 2, Ack: server.AckSync}
	if e.traced {
		// The server's own tracer, every request, into the registry its
		// OpStats answers from.
		opts.Obs = obs.NewRegistry()
		w.tracer = obs.NewTracer(1<<15, 1, opts.Obs)
		opts.Trace = w.tracer
	}
	ld, err := openLeader(e, wal.SyncGroup, walGroupInterval, w.tracer)
	if err != nil {
		return nil, err
	}
	w.ld = ld
	if opts.Obs != nil {
		ld.l.RegisterObs(opts.Obs)
	}
	w.srv = server.New(ld.sys(), ld.m, ld.l, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ld.l.Close()
		return nil, err
	}
	w.srv.Start(ln)
	keyRange, _ := walSizes(e)
	for c := 0; c < wireConns; c++ {
		cl, err := client.Dial(w.srv.Addr().String(), client.Options{})
		if err != nil {
			w.srv.Close()
			ld.l.Close()
			return nil, err
		}
		w.clients = append(w.clients, cl)
		for k := 0; k < wireCallers; k++ {
			id := len(w.callers)
			ca := &caller{cl: cl, player: newPlayer(genStream(e.seed, id, streamLn/8, keyRange, wireMix),
				wireReadQuantum, wireUpdateQuantum)}
			if e.traced {
				ca.t = newTctx(e.wlIdx, id, 1)
			}
			w.callers = append(w.callers, ca)
		}
	}
	return w, nil
}

// step sends the caller's next op and waits for its (fsync-covered) answer.
func (ca *caller) step() {
	kind, key := ca.next()
	var err error
	t0 := nowNs()
	ca.t.beginOp(kind.String())
	switch kind {
	case workload.OpInsert:
		var ins bool
		ca.t.call("client", "Insert", func() { ins, err = ca.cl.Insert(key, key) })
		if ins && err == nil {
			ca.led.inserted(key)
		}
	case workload.OpDelete:
		var del bool
		ca.t.call("client", "Delete", func() { del, err = ca.cl.Delete(key) })
		if del && err == nil {
			ca.led.deleted(key)
		}
	default:
		ca.t.call("client", "Search", func() { _, _, err = ca.cl.Search(key) })
	}
	ca.t.endOp()
	ca.count(kind, err == nil, nowNs()-t0)
}

func (w *wireSync) trial(d time.Duration) (trialResult, error) {
	res := trialResult{layer: map[string]float64{}}
	for _, ca := range w.callers {
		ca.resetTrial()
	}
	before, tmBefore, srvBefore, cpu0 := w.ld.window(), w.ld.sys().Stats(), w.srv.Stats(), cpuSeconds()
	var probe []float64
	var probeErr error
	res.wall = runDrivers(len(w.callers)+1, d, func(i int, stop *atomic.Bool) {
		if i == len(w.callers) {
			probe, probeErr = probeDisk(filepath.Join(w.e.tmp, "fsync-probe"), stop)
			return
		}
		for !stop.Load() {
			w.callers[i].step()
		}
	})
	cpu := cpuSeconds() - cpu0
	if probeErr != nil {
		return res, fmt.Errorf("disk probe: %w", probeErr)
	}
	for _, ca := range w.callers {
		ca.foldInto(&res)
	}
	disk := quantileOf(probe, 0.25)
	res.layer["wal.fsync_probe_us_p25"] = disk / 1e3
	res.layer["server.update_raw_us"] = fastDecile(res.updQ) / 1e3
	if disk > 0 {
		res.updDiskFactor = float64(nominalProbe) / disk
	}
	walLayer(before, w.ld.window(), res.updates, res.wall, res.layer)
	mvstmLayer(tmBefore, w.ld.sys().Stats(), res.layer)
	srv := w.srv.Stats()
	if rounds := srv.SyncRounds - srvBefore.SyncRounds; rounds > 0 {
		res.layer["server.acks_per_fsync"] = float64(srv.SyncedAcks-srvBefore.SyncedAcks) / float64(rounds)
	}
	if n := res.reads + res.updates; n > 0 {
		// Client and server share the process, so this is the CPU cost of a
		// whole round trip, both ends.
		res.layer["server.cpu_us_per_op"] = cpu * 1e6 / float64(n)
	}
	if w.tracer != nil {
		if err := w.stageLayer(&res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// probeDisk times one 4 KiB write + fsync to path every probeEvery until stop
// is raised, and returns the times in nanoseconds.
func probeDisk(path string, stop *atomic.Bool) ([]float64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var times []float64
	block := make([]byte, 4096)
	for !stop.Load() {
		t0 := nowNs()
		if _, err := f.WriteAt(block, 0); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		times = append(times, float64(nowNs()-t0))
		time.Sleep(probeEvery)
	}
	return times, nil
}

// serverStages are the stages that partition a request's server-side latency.
var serverStages = []obs.Stage{obs.StageQueueWait, obs.StageDecode, obs.StageExecute,
	obs.StageAckStage, obs.StageSyncWait, obs.StageAckWrite}

// stageLayer reads the server tracer's per-stage histograms the way an
// operator would, through the wire (client.Stats), and merges its spans.
func (w *wireSync) stageLayer(res *trialResult) error {
	snap, err := w.clients[0].Stats()
	if err != nil {
		return fmt.Errorf("server stats over the wire: %w", err)
	}
	for _, st := range serverStages {
		if h, ok := snap.Hists["trace.stage."+st.String()]; ok && h.Count > 0 {
			res.layer["server.stage."+st.String()+"_us_p50"] = float64(h.P50) / 1e3
		}
	}
	spans := serverSpans(w.tracer, w.e.wlIdx)
	var total, staged float64
	for _, s := range spans {
		switch {
		case s.Parent == 0:
			total += float64(s.EndNs - s.StartNs)
		case s.Layer != "mvstm" && s.Layer != "wal": // the six partitioning stages
			staged += float64(s.EndNs - s.StartNs)
		}
	}
	if total > 0 {
		res.layer["server.unattributed_share"] = 1 - staged/total
	}
	res.spans = append(res.spans, spans...)
	return nil
}

func (w *wireSync) finish() (map[string]float64, error) {
	for _, cl := range w.clients {
		cl.Close()
	}
	if err := w.srv.Shutdown(10 * time.Second); err != nil {
		w.ld.l.Close()
		return nil, fmt.Errorf("server drain: %w", err)
	}
	// Every acked update must be present after shutdown and recovery.
	want := w.ld.pre
	for _, ca := range w.callers {
		want.add(ca.led)
	}
	keyRange, _ := walSizes(w.e)
	_, err := w.ld.recoverAndCompare(want, keyRange)
	return nil, err
}
