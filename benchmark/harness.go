package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// env is what a workload's set-up receives.
type env struct {
	seed   uint64
	tmp    string // scratch directory for WAL dirs; removed when the run ends
	quick  bool   // catalogue test: tiny sizes, no timing meaning
	traced bool   // traced pass: span rings on, server tracer on
	wlIdx  int    // index in workloadNames, for unique span ids
	rung   time.Duration
}

// tempDir makes a fresh directory under the run's scratch directory.
func (e *env) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern)
}

// trialResult is what one trial of a workload hands back.
type trialResult struct {
	reads, updates uint64 // operations completed successfully
	failed         uint64 // starved, refused, errored or lost
	wall           time.Duration
	readQ, updQ    []float64          // mean ns per read / per update, one value per fixed-work quantum
	updDiskFactor  float64            // wire-sync: scales updQ to the nominal disk, in place of the scaling to nominal memory
	layer          map[string]float64 // per-layer values measured in this trial
	spans          []span             // traced pass only
}

// instance is one set-up workload. trial may be called several times; finish
// stops every goroutine, checks the oracle and removes what set-up made.
type instance interface {
	trial(d time.Duration) (trialResult, error)
	finish() (layer map[string]float64, err error)
}

// workloadDef binds a name to its set-up and to the layer micro-benchmarks
// that belong to the layers it exercises.
type workloadDef struct {
	setup  func(e *env) (instance, error)
	layers func(e *env, out map[string]float64) ([]span, error)
}

var workloadDefs = map[string]workloadDef{
	"point-mix":      {setupPointMix, layersPointMix},
	"long-read":      {setupLongRead, layersLongRead},
	"durable-update": {setupDurable, layersDurable},
	"wire-sync":      {setupWire, layersWire},
	"replica-follow": {setupReplica, layersReplica},
}

// value is one reported number with the per-instance values it was reduced
// from (see runEndToEnd for how each end-to-end metric reduces them; a
// per-layer metric is their median).
type value struct {
	Value  float64   `json:"value"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Trials []float64 `json:"trials,omitempty"`
}

func newValue(v float64, unit string, from []float64) value {
	lo, hi := minMax(from)
	return value{Value: v, Min: lo, Max: hi, N: len(from), Unit: unit, Trials: from}
}

// workloadResult is everything one pass over one workload produced.
type workloadResult struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// Machine is what the probes read around each instance's trial of the
	// end-to-end pass: the state of the box the values above were taken on.
	Machine map[string][]float64 `json:"machine,omitempty"`
	spans   []span
}

// measured wraps one trial with the process-wide readings every workload
// shares: CPU time, allocations, heap peak, GC and scheduler histograms.
type measured struct {
	trialResult
	rawReadQ, rawUpdQ []float64 // the timing samples as the clock read them, before any scaling to nominal memory
	cpu               float64
	allocs            uint64
	peakHeap          uint64
	gcPause           float64 // seconds
	numGC             uint64
	schedP99          float64 // seconds
}

// measureTrial runs one trial between two readings of the memory probe and
// scales its timing samples to the nominal memory speed (memprobe.go).
// memBefore is the reading the caller took last; the reading after the trial
// is returned for the next measurement to start from.
func measureTrial(in instance, d time.Duration, memBefore float64) (measured, float64, error) {
	hs := startHeapSampler()
	before, cpu0 := readRuntime(), cpuSeconds()
	tr, err := in.trial(d)
	cpu1, after := cpuSeconds(), readRuntime()
	m := measured{trialResult: tr, cpu: cpu1 - cpu0, allocs: after.allocs - before.allocs,
		peakHeap: hs.stopPeak(), numGC: after.gcCycles - before.gcCycles}
	m.gcPause, _ = histDelta(before.gcPauses, after.gcPauses, 0.5)
	_, m.schedP99 = histDelta(before.sched, after.sched, 0.99)
	memAfter := memProbe()
	if err != nil {
		return m, memAfter, err
	}
	m.layer["run.mem_probe_ns"] = (memBefore + memAfter) / 2
	m.rawReadQ, m.rawUpdQ = m.readQ, m.updQ
	f := atNominalMemory(memBefore, memAfter)
	m.readQ = scaled(m.readQ, f)
	if m.updDiskFactor > 0 {
		f = m.updDiskFactor
	}
	m.updQ = scaled(m.updQ, f)
	return m, memAfter, nil
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func (m measured) ops() float64 { return float64(m.reads + m.updates) }

// plan is how a pass spends its measured seconds: on `instances` independently
// built instances of the workload, each warmed up and then measured for
// `trial`.
type plan struct {
	instances int
	warmup    time.Duration
	trial     time.Duration
}

// instancesPerPass: the same workload built twice in one process runs up to
// 25% apart (where the allocator happened to put the two drivers' TM state
// decides how much they share cache lines), so one instance is never the
// whole measurement.
const instancesPerPass = 5

func planFor(seconds float64, quick bool) plan {
	if quick {
		return plan{instances: 1, warmup: 0, trial: 200 * time.Millisecond}
	}
	total := time.Duration(seconds * float64(time.Second))
	return plan{instances: instancesPerPass, warmup: total / 40, trial: total / instancesPerPass}
}

// fastDecile is the statistic every timing is reported as: the first decile
// of the per-quantum mean op times. A quantum is a fixed amount of work, so
// anything outside the program (a neighbour on the core's other hardware
// thread, a busier shared cache, a slower disk) can only make it longer. On
// this box those disturbances come in bursts of milliseconds to seconds and
// move a run's median op time by 10-40% between identical runs; the decile
// on the fast side reads the quanta that fell between the bursts and repeats
// to a few percent. It is a decile and not the minimum so that a tenth of
// the run has to reach it.
func fastDecile(quanta []float64) float64 {
	if len(quanta) == 0 {
		return 0
	}
	s := append([]float64(nil), quanta...)
	sort.Float64s(s)
	return s[(len(s)-1)/10]
}

// fastQuartile reduces per-instance values to the run's value: their first
// quartile, the second fastest of five. Like a disturbance from outside, an
// unlucky memory layout only ever slows an instance down, and a burst of
// interference that lasts seconds spoils whole instances; the fast side of
// the five repeats where their median follows how many of them were spared.
// It is not the fastest, so that two instances have to reach the value.
func fastQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}

// runEndToEnd is the untraced pass over one workload: p.instances times
// set-up, warm-up, one measured trial, oracle.
func runEndToEnd(name string, e *env, p plan) (workloadResult, error) {
	def := workloadDefs[name]
	res := workloadResult{EndToEnd: map[string]value{}}
	per := map[string][]float64{}
	var allocs, ops float64
	mem := memProbe()
	for i := 0; i < p.instances; i++ {
		t0 := time.Now()
		in, err := def.setup(e)
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setup := time.Since(t0).Seconds()
		memSetUp := memProbe()
		per["setup_s"] = append(per["setup_s"], setup*atNominalMemory(mem, memSetUp))
		var m measured
		if m, mem, err = warmAndMeasure(in, p, memSetUp); err != nil {
			in.finish()
			return res, fmt.Errorf("instance %d: %w", i, err)
		}
		if _, err := in.finish(); err != nil {
			return res, fmt.Errorf("instance %d oracle: %w", i, err)
		}
		res.Attempted += m.reads + m.updates + m.failed
		res.Failed += m.failed
		allocs, ops = allocs+float64(m.allocs), ops+m.ops()
		per["read_us"] = append(per["read_us"], fastDecile(m.readQ)/1e3)
		per["update_us"] = append(per["update_us"], fastDecile(m.updQ)/1e3)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(m.allocs)/m.ops())
		per["peak_heap_mb"] = append(per["peak_heap_mb"], float64(m.peakHeap)/(1<<20))
		per["mem_probe_ns"] = append(per["mem_probe_ns"], m.layer["run.mem_probe_ns"])
		per["alu_probe_ns"] = append(per["alu_probe_ns"], aluProbe())
		// The next instance starts from a collected heap, as the first did.
		runtime.GC()
	}
	res.Correct = true
	res.Machine = map[string][]float64{"mem_probe_ns": per["mem_probe_ns"], "alu_probe_ns": per["alu_probe_ns"]}
	reduce := map[string]float64{
		"read_us":       fastQuartile(per["read_us"]),
		"update_us":     fastQuartile(per["update_us"]),
		"allocs_per_op": allocs / ops,
		"peak_heap_mb":  median(per["peak_heap_mb"]),
		"setup_s":       fastQuartile(per["setup_s"]),
	}
	for _, m := range endToEnd {
		res.EndToEnd[m.name] = newValue(reduce[m.name], m.unit, per[m.name])
	}
	return res, nil
}

// warmAndMeasure runs the discarded warm-up trial and the measured one. mem
// is the memory probe's last reading; the reading after the trial is
// returned.
func warmAndMeasure(in instance, p plan, mem float64) (measured, float64, error) {
	if p.warmup > 0 {
		if _, err := in.trial(p.warmup); err != nil {
			return measured{}, mem, fmt.Errorf("warm-up: %w", err)
		}
		mem = memProbe()
	}
	return measureTrial(in, p.trial, mem)
}

// opNs is the mean time of one op of the trial's mix, rebuilt from the fast
// deciles of its reads and updates.
func (m measured) opNs() float64 {
	return (float64(m.reads)*fastDecile(m.readQ) + float64(m.updates)*fastDecile(m.updQ)) / m.ops()
}

// tracedInstances is how many instances each half of the traced pass builds.
const tracedInstances = 2

// runTraced is the traced pass over one workload: tracedInstances untraced
// and as many traced instances (the server's tracer is a construction-time
// option, so the halves cannot share one), then the layer micro-benchmarks.
// End-to-end numbers are never taken from it.
func runTraced(name string, e *env, p plan) (workloadResult, error) {
	def := workloadDefs[name]
	res := workloadResult{PerLayer: map[string]value{}}
	layer := map[string]float64{}
	n := tracedInstances
	if p.instances < n {
		n = p.instances
	}
	var opNs [2]float64
	mem := memProbe()
	for pass, traced := range []bool{false, true} {
		pe := *e
		pe.traced = traced
		per := map[string][]float64{}
		var opTimes, readQ, updQ []float64
		for i := 0; i < n; i++ {
			in, err := def.setup(&pe)
			if err != nil {
				return res, fmt.Errorf("set-up (traced=%v): %w", traced, err)
			}
			var m measured
			if m, mem, err = warmAndMeasure(in, p, mem); err != nil {
				in.finish()
				return res, fmt.Errorf("traced=%v instance %d: %w", traced, i, err)
			}
			fin, err := in.finish()
			if err != nil {
				return res, fmt.Errorf("oracle (traced=%v): %w", traced, err)
			}
			res.Attempted += m.reads + m.updates + m.failed
			res.Failed += m.failed
			opTimes = append(opTimes, m.opNs())
			w := m.wall.Seconds()
			m.layer["run.read_ops_per_s"] = float64(m.reads) / w
			m.layer["run.update_ops_per_s"] = float64(m.updates) / w
			m.layer["run.ops_per_cpu_s"] = m.ops() / m.cpu
			m.layer["runtime.gc_pause_ms"] = m.gcPause * 1e3
			m.layer["runtime.num_gc"] = float64(m.numGC)
			m.layer["runtime.sched_lat_us_p99"] = m.schedP99 * 1e6
			for k, v := range fin {
				m.layer[k] = v
			}
			for k, v := range m.layer {
				per[k] = append(per[k], v)
			}
			readQ, updQ = append(readQ, m.rawReadQ...), append(updQ, m.rawUpdQ...)
			res.spans = m.spans
			runtime.GC()
		}
		opNs[pass] = fastQuartile(opTimes)
		if !traced {
			continue
		}
		for k, xs := range per {
			layer[k] = median(xs)
		}
		layer["tail.read_us_p50"] = quantileOf(readQ, 0.5) / 1e3
		layer["tail.read_us_p99"] = quantileOf(readQ, 0.99) / 1e3
		layer["tail.update_us_p50"] = quantileOf(updQ, 0.5) / 1e3
		layer["tail.update_us_p99"] = quantileOf(updQ, 0.99) / 1e3
		for l, ns := range selfTimes(res.spans) {
			layer["trace.self_ns."+l] = ns
		}
	}
	layer["obs.trace_overhead_share"] = 1 - opNs[0]/opNs[1]
	// The layer benchmarks run untraced; the one replay that nests spans for
	// real hands them back.
	nested, err := def.layers(e, layer)
	if err != nil {
		return res, fmt.Errorf("layer benchmarks: %w", err)
	}
	res.spans = append(res.spans, nested...)
	res.Correct = true
	for _, m := range perLayer {
		if v, ok := layer[m.name]; ok {
			res.PerLayer[m.name] = value{Value: v, Min: v, Max: v, N: 1, Unit: m.unit}
			delete(layer, m.name)
		}
	}
	for k := range layer {
		return res, fmt.Errorf("measured %q, which the catalogue does not name", k)
	}
	return res, nil
}

// runDrivers starts n goroutines behind one start barrier, lets them run for
// d, raises stop and waits. It returns the wall time from the barrier's
// release until the last driver returned.
func runDrivers(n int, d time.Duration, body func(worker int, stop *atomic.Bool)) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			body(w, &stop)
		}(w)
	}
	t0 := time.Now()
	close(start)
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	wg.Wait()
	timer.Stop()
	return time.Since(t0)
}

func nowNs() int64 { return time.Now().UnixNano() }
