package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/ds"
	"repro/internal/stm"
	"repro/internal/workload"
)

// The two in-process workloads share one shape: an abtree prefilled to half
// its key range over one TM system, two driver goroutines straight on ds.*.
const (
	inprocKeyRange = 200_000
	inprocPrefill  = 100_000
	inprocLockTab  = 1 << 20 // mvstm's own default table size
	// rqSpan is the key span of one long-read range query: a quarter of the
	// key range, about 25 000 keys, 11 ms on the versioned path.
	rqSpan = 50_000
	// longReadTM is the backend of long-read: multiverse pinned in Mode U (the
	// paper's Fig 8 ablation). With adaptive mode selection the same commit
	// and seed land, instance by instance, in one of three regimes: the tree
	// never leaves Mode Q and a query takes 1.5 ms, or it settles in Mode U
	// at 15-19 ms a query, or at 24-30 ms with the updater 40% slower as
	// well; spans of a tenth to the whole of the key range were tried and
	// every one has at least two of them. Pinned, there is one regime, and
	// at this span it repeats to a few percent. What the adaptive TM does on
	// the same workload is per-layer (mvstm.adaptive_*), next to DCTL's.
	longReadTM = "multiverse-u"
)

var pointMix = workload.Mix{InsertPct: 0.10, DeletePct: 0.10}
var updaterMix = workload.Mix{InsertPct: 0.50, DeletePct: 0.50}

// inproc is a set-up in-process workload: point-mix when both drivers run the
// 80/10/10 stream, long-read when driver 0 issues range queries and driver 1
// is the dedicated updater.
type inproc struct {
	e        *env
	longRead bool
	sys      stm.System
	m        ds.Map
	drivers  [2]*driver
	rqLo     []uint64 // long-read: range query start keys
	rqPos    int
	pre      ledger
	rqErr    error
	keyRange uint64

	versionedRQs int // long-read: range queries of the last trial that committed versioned
}

func setupPointMix(e *env) (instance, error) { return setupInproc(e, "multiverse", false) }
func setupLongRead(e *env) (instance, error) { return setupInproc(e, longReadTM, true) }

func setupInproc(e *env, tm string, longRead bool) (*inproc, error) {
	keyRange, fill := uint64(inprocKeyRange), inprocPrefill
	if e.quick {
		keyRange, fill = 20_000, 10_000
	}
	w := &inproc{e: e, longRead: longRead, keyRange: keyRange, sys: bench.NewTM(tm, inprocLockTab), m: bench.NewDS("abtree", int(keyRange))}
	th := w.sys.Register()
	pre, err := prefill(th, w.m, e.seed, fill, keyRange)
	th.Unregister()
	if err != nil {
		w.sys.Close()
		return nil, err
	}
	w.pre = pre
	for i := range w.drivers {
		var d *driver
		switch {
		case !longRead:
			d = newDriver(genStream(e.seed, i, streamLn, keyRange, pointMix))
		case i == 1:
			d = newDriver(genStream(e.seed, i, streamLn, keyRange, updaterMix))
		default:
			d = newDriver(nil)
			d.readS.size = 1 // every range query is its own timing sample
		}
		if e.traced {
			d.t = newTctx(e.wlIdx, i, 64)
		}
		d.th = traceThread(w.sys.Register(), d.t, "mvstm")
		d.m = traceMap(w.m, d.t, "ds")
		w.drivers[i] = d
	}
	if longRead {
		span := w.span()
		rng := workload.NewRng(e.seed ^ 0x7a11)
		w.rqLo = make([]uint64, 1<<12)
		for i := range w.rqLo {
			w.rqLo[i] = rng.Next()%(keyRange-span+1) + 1
		}
	}
	return w, nil
}

func (w *inproc) span() uint64 {
	if w.e.quick {
		return 10_000
	}
	return rqSpan
}

func (w *inproc) trial(d time.Duration) (trialResult, error) {
	res := trialResult{layer: map[string]float64{}}
	for _, dr := range w.drivers {
		dr.resetTrial()
	}
	before, allocs0 := w.sys.Stats(), readRuntime().allocs
	res.wall = runDrivers(2, d, func(i int, stop *atomic.Bool) {
		dr := w.drivers[i]
		if w.longRead && i == 0 {
			w.readLoop(dr, stop)
			return
		}
		dr.run(stop)
	})
	for _, dr := range w.drivers {
		dr.foldInto(&res)
	}
	if w.longRead && res.reads > 0 {
		res.layer["mvstm.allocs_per_rq"] = float64(readRuntime().allocs-allocs0) / float64(res.reads)
		res.layer["mvstm.versioned_rq_share"] = float64(w.versionedRQs) / float64(res.reads)
	}
	mvstmLayer(before, w.sys.Stats(), res.layer)
	return res, w.rqErr
}

// readLoop is long-read's reader: back-to-back range queries, every one
// timed and checked against what a correct map could return. Only the queries
// that committed on the versioned path are timing samples of the read: the
// others got through unversioned in a tenth of the time, while the updater
// stood still for a moment, and how many do is luck. If fewer than ten
// queries of a trial took the versioned path, all of them are the samples.
func (w *inproc) readLoop(dr *driver, stop *atomic.Bool) {
	span := w.span()
	var unversioned []int64
	for !stop.Load() {
		lo := w.rqLo[w.rqPos]
		w.rqPos = (w.rqPos + 1) % len(w.rqLo)
		before := w.sys.Stats().VersionedCommits
		t0 := nowNs()
		dr.t.beginOp("rq")
		count, sum, ok := ds.Range(dr.th, dr.m, lo, lo+span-1)
		dr.t.endOp()
		ns := nowNs() - t0
		if !ok {
			dr.failed++
			continue
		}
		dr.reads++
		if w.sys.Stats().VersionedCommits > before {
			dr.readS.add(ns)
		} else {
			unversioned = append(unversioned, ns)
		}
		if err := checkRange(lo, lo+span-1, count, sum); err != nil && w.rqErr == nil {
			w.rqErr = err
		}
	}
	w.versionedRQs = len(dr.readS.out)
	if w.versionedRQs < 10 {
		for _, ns := range unversioned {
			dr.readS.add(ns)
		}
	}
}

func (w *inproc) finish() (map[string]float64, error) {
	want := w.pre
	for _, dr := range w.drivers {
		want.add(dr.led)
	}
	th := w.sys.Register()
	err := checkLedger(th, w.m, w.keyRange, want)
	th.Unregister()
	w.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.sys.Name(), err)
	}
	return nil, nil
}

// close releases the threads and the TM without running the oracle.
func (w *inproc) close() {
	for _, dr := range w.drivers {
		dr.th.Unregister()
	}
	w.sys.Close()
}
