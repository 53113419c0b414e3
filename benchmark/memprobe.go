package main

import (
	"math"
	"sync"

	"repro/internal/workload"
)

// The memory probe. What a cache-missing load costs on this box depends on
// the minute: a dependent load past the private L2 takes 65 to 135 ns, the
// level holds for minutes, so the fast decile has no fast side to read, and
// everything this benchmark times follows it: over 25 runs of each workload,
// spread over half an hour, the op times went with the probe to the power of
// 0.4 (wire-sync's reads) to 0.9 (replica-follow's), set-up times too. So the
// harness runs a pointer chase over a fixed random cycle on both cores before
// and after whatever it times, and scales the time to a machine whose chase
// takes nominalStepNs a step: time x (nominal / probe)^memElasticity. One
// elasticity for every workload, because one that had to be fitted per
// workload would have to be refitted whenever the code under it changes. It
// took the ten-run spread of the timings from 11-17% to 5-8% (README.md has
// the table). The probe's own reading is per-layer, run.mem_probe_ns.
const (
	probeWords    = 1 << 21 // 8 MiB per core: past the private L2 and the second-level TLB's reach
	probeSteps    = 2048    // one slice, about 0.2 ms
	probeSlices   = 128     // per core per reading, about 25 ms
	nominalStepNs = 90.0
	memElasticity = 0.6
)

var (
	probeOnce   sync.Once
	probeCycles [2][]uint32
	probeAt     [2]uint32 // where each core's chase stands; keeping it keeps the chase alive
	aluState    [2]uint64
)

// onBothCores runs slice probeSlices times on each of two goroutines and
// returns the fast decile of the times per step it reported.
func onBothCores(slice func(core int) float64) float64 {
	var wg sync.WaitGroup
	var times [2][]float64
	for c := range times {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := 0; s < probeSlices; s++ {
				times[c] = append(times[c], slice(c))
			}
		}(c)
	}
	wg.Wait()
	return fastDecile(append(times[0], times[1]...))
}

// memProbe returns the chase's time per step in nanoseconds. The cycles are
// built on first use: they depend on nothing.
func memProbe() float64 {
	probeOnce.Do(func() {
		rng := workload.NewRng(0x70726f6265)
		for c := range probeCycles {
			a := make([]uint32, probeWords)
			for i := range a {
				a[i] = uint32(i)
			}
			for i := len(a) - 1; i > 0; i-- { // Sattolo: one cycle through every word
				j := rng.Intn(i)
				a[i], a[j] = a[j], a[i]
			}
			probeCycles[c] = a
		}
	})
	return onBothCores(func(c int) float64 {
		a, at := probeCycles[c], probeAt[c]
		t0 := nowNs()
		for i := 0; i < probeSteps; i++ {
			at = a[at]
		}
		ns := nowNs() - t0
		probeAt[c] = at
		return float64(ns) / probeSteps
	})
}

// aluProbe is the memory probe's counterpart for the cores themselves: the
// time per step of a register-to-register multiply-add chain. It is recorded
// beside the memory probe's reading (-out files, "machine") and not used for
// scaling: it reads 1.38 ns for as long as the chain gets a tenth of its
// slices to itself.
func aluProbe() float64 {
	const steps = 50_000 // one slice, about 70 us
	return onBothCores(func(c int) float64 {
		x := aluState[c] | 1
		t0 := nowNs()
		for i := 0; i < steps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		ns := nowNs() - t0
		aluState[c] = x
		return float64(ns) / steps
	})
}

// atNominalMemory is the factor that scales a time measured between two
// probe readings to the nominal memory speed.
func atNominalMemory(before, after float64) float64 {
	return math.Pow(nominalStepNs/((before+after)/2), memElasticity)
}
