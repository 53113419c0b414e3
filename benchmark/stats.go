package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantileOf returns the q-quantile of the samples. A quantile is only
// reported where at least ten samples lie beyond it: with fewer, q is lowered
// to the highest quantile that has ten beyond (1 - 10/n).
func quantileOf(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	if beyond := 10 / float64(n); q > 1-beyond && beyond < 0.5 {
		q = 1 - beyond
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(q*float64(n-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// runtime/metrics names the harness reads around every trial. They are read
// without stopping the world, unlike runtime.ReadMemStats.
const (
	rmAllocs   = "/gc/heap/allocs:objects"
	rmHeapObjs = "/memory/classes/heap/objects:bytes"
	rmHeapFree = "/memory/classes/heap/unused:bytes"
	rmGCCycles = "/gc/cycles/total:gc-cycles"
	rmGCPauses = "/sched/pauses/total/gc:seconds"
	rmSchedLat = "/sched/latencies:seconds"
)

// rtSnap is one reading of the runtime counters.
type rtSnap struct {
	allocs, gcCycles uint64
	gcPauses, sched  *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rmAllocs}, {Name: rmGCCycles}, {Name: rmGCPauses}, {Name: rmSchedLat}}
	metrics.Read(s)
	return rtSnap{
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcPauses: s[2].Value.Float64Histogram(),
		sched:    s[3].Value.Float64Histogram(),
	}
}

// histDelta summarises the samples a runtime histogram gained between two
// readings: their approximate sum (bucket midpoints) and q-quantile (bucket
// upper bound), both in seconds.
func histDelta(before, after *metrics.Float64Histogram, q float64) (sum, quant float64) {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0, 0
	}
	target := uint64(q * float64(total))
	var seen uint64
	found := false
	for i, c := range delta {
		if c == 0 {
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
		seen += c
		if !found && seen > target {
			quant, found = hi, true
		}
	}
	return sum, quant
}

// heapInuse reads only the two heap gauges: the 50 ms sampler must not itself
// allocate histograms beside the workload it watches.
func heapInuse() uint64 {
	s := [2]metrics.Sample{{Name: rmHeapObjs}, {Name: rmHeapFree}}
	metrics.Read(s[:])
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// heapSampler records the maximum in-use heap, read every 50 ms.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: heapInuse()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := heapInuse(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// stopPeak stops the sampler and returns the peak, including one last reading.
func (h *heapSampler) stopPeak() uint64 {
	close(h.stop)
	h.wg.Wait()
	if v := heapInuse(); v > h.peak {
		h.peak = v
	}
	return h.peak
}
