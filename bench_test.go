// Package repro's top-level benchmarks regenerate every figure of the paper's
// evaluation at a laptop scale, and price the TM's hot paths. The figure
// mapping is the table in internal/bench/experiments.go, which BenchmarkFig
// walks; cmd/multibench sweeps the same table at arbitrary scale.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/gclock"
	"repro/internal/mvstm"
	"repro/internal/obs"
	"repro/internal/stm"
)

// BenchmarkFig runs every point of every figure under the figure's line-up
// as BenchmarkFig/<id>/<label>/<tm>, one bench.Run per iteration, and reports
// the figures' metrics as custom units: ops/s (throughput figures), rq/s
// (range-query completion), heapKB (Fig 9), ops/cpu-s (Fig 10's energy
// proxy), and for Fig 8 the throughput of each interval. The scale keeps
// `go test -bench=.` to minutes on one core; at one thread count the
// appendix figures (fig14, fig16–fig21: fig6/11/12 on other machines'
// thread grids) would repeat those, so rows without points of their own run
// nothing.
func BenchmarkFig(b *testing.B) {
	scale := bench.Scale{Prefill: 4096, Duration: 80 * time.Millisecond, Threads: []int{4}}
	for _, f := range bench.Figures() {
		for _, p := range f.Points {
			for _, tm := range f.LineUp() {
				b.Run(f.ID+"/"+p.Label+"/"+tm, func(b *testing.B) {
					cfg := p.Config(scale, tm, scale.Threads[0])
					var res bench.Result
					for i := 0; i < b.N; i++ {
						res = bench.Run(cfg)
					}
					b.ReportMetric(res.OpsPerSec, "ops/s")
					b.ReportMetric(res.RQsPerSec, "rq/s")
					b.ReportMetric(float64(res.MaxHeapKB), "heapKB")
					b.ReportMetric(res.OpsPerCPUSec, "ops/cpu-s")
					b.ReportMetric(float64(res.Starved), "starved")
					b.ReportMetric(res.AllocsPerOp, "allocs/op-tm")
					b.ReportMetric(float64(res.NumGC), "gc-cycles")
					b.ReportMetric(float64(res.GCPauseTotal.Microseconds()), "gcPause-µs")
					// A sample belongs to the phase it ended in.
					phaseOps := make([]float64, len(cfg.Phases))
					for _, smp := range res.Series {
						phaseOps[min(int(smp.At.Seconds()/cfg.Phases[0].Seconds), len(phaseOps)-1)] += float64(smp.Ops)
					}
					for i, ops := range phaseOps {
						b.ReportMetric(ops/cfg.Phases[i].Seconds, fmt.Sprintf("phase%d-ops/s", i+1))
					}
				})
			}
		}
	}
}

// --- Microbenchmarks: per-operation TM overhead -------------------------

// BenchmarkTxnReadOnly8 measures an 8-word read-only transaction.
func BenchmarkTxnReadOnly8(b *testing.B) {
	for _, tm := range bench.TMNames {
		b.Run(tm, func(b *testing.B) {
			sys := bench.NewTM(tm, 1<<12)
			defer sys.Close()
			th := sys.Register()
			defer th.Unregister()
			var words [8]stm.Word
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.ReadOnly(func(tx stm.Txn) {
					for j := range words {
						tx.Read(&words[j])
					}
				})
			}
		})
	}
}

// BenchmarkTxnUpdate2 measures a 2-read/2-write transaction.
func BenchmarkTxnUpdate2(b *testing.B) {
	for _, tm := range bench.TMNames {
		b.Run(tm, func(b *testing.B) {
			sys := bench.NewTM(tm, 1<<12)
			defer sys.Close()
			th := sys.Register()
			defer th.Unregister()
			var a, c stm.Word
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Atomic(func(tx stm.Txn) {
					tx.Write(&a, tx.Read(&a)+1)
					tx.Write(&c, tx.Read(&c)+1)
				})
			}
		})
	}
}

// BenchmarkVersionedWrite measures Multiverse's versioned write path (Mode
// U: every write pushes a version and retires the superseded one). Run with
// -benchmem: steady state must be allocation-free (pooled version nodes,
// closure-free retires).
func BenchmarkVersionedWrite(b *testing.B) {
	sys := mvstm.NewPinned(mvstm.Config{LockTableSize: 1 << 12, DisableBG: true}, mvstm.ModeU)
	defer sys.Close()
	th := sys.RegisterMV()
	defer th.Unregister()
	var words [8]stm.Word
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(tx stm.Txn) {
			for j := range words {
				tx.Write(&words[j], uint64(i+j))
			}
		})
	}
}

// BenchmarkObsOverhead prices the observability plane on the versioned
// write hot path: the same 8-word Mode U transaction as
// BenchmarkVersionedWrite, with a flight recorder attached and per-reason
// abort counters live. Run with -benchmem: the instrumented path must stay
// 0 allocs/op (the recorder's ring slots are preallocated atomics, the
// reason counters are fixed arrays), and within a few percent of the
// uninstrumented baseline above.
func BenchmarkObsOverhead(b *testing.B) {
	sys := mvstm.NewPinned(mvstm.Config{
		LockTableSize: 1 << 12, DisableBG: true,
		ObsConfig: stm.ObsConfig{Obs: obs.NewRecorder(obs.DefaultRingSize)},
	}, mvstm.ModeU)
	defer sys.Close()
	th := sys.RegisterMV()
	defer th.Unregister()
	var words [8]stm.Word
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(tx stm.Txn) {
			for j := range words {
				tx.Write(&words[j], uint64(i+j))
			}
		})
	}
}

// TestObsOverheadAllocFree pins the benchmark's claim as a test: the
// instrumented hot path performs zero allocations per transaction.
func TestObsOverheadAllocFree(t *testing.T) {
	sys := mvstm.NewPinned(mvstm.Config{
		LockTableSize: 1 << 12, DisableBG: true,
		ObsConfig: stm.ObsConfig{Obs: obs.NewRecorder(obs.DefaultRingSize)},
	}, mvstm.ModeU)
	defer sys.Close()
	th := sys.RegisterMV()
	defer th.Unregister()
	var words [8]stm.Word
	// Warm the version pools before measuring.
	for i := 0; i < 64; i++ {
		th.Atomic(func(tx stm.Txn) {
			for j := range words {
				tx.Write(&words[j], uint64(i+j))
			}
		})
	}
	allocs := testing.AllocsPerRun(200, func() {
		th.Atomic(func(tx stm.Txn) {
			for j := range words {
				tx.Write(&words[j], 1)
			}
		})
	})
	if allocs != 0 {
		t.Fatalf("instrumented versioned write allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkVersionedRead prices an 8-word read transaction over words a
// Mode U writer has versioned, on each path a read can take: unversioned
// (ReadOnly; a lone thread never aborts, so it never escalates), versioned
// with every word untouched since the read clock (AtomicSI: versioned from
// the first attempt, every read served in place) and versioned with every
// word overwritten above the read clock (SnapshotAt pinned below the
// overwrite: one unversioned attempt that fails validation, then a versioned
// one whose every read walks bloom, VLT and version list). All three must
// report 0 allocs/op.
func BenchmarkVersionedRead(b *testing.B) {
	clk := new(gclock.Clock)
	clk.Set(1)
	sys := mvstm.NewPinned(mvstm.Config{LockTableSize: 1 << 12, DisableBG: true, Clock: clk}, mvstm.ModeU)
	defer sys.Close()
	th := sys.RegisterMV()
	defer th.Unregister()
	var words [8]stm.Word
	write := func(base uint64) {
		th.Atomic(func(tx stm.Txn) {
			for j := range words {
				tx.Write(&words[j], base+uint64(j))
			}
		})
	}
	var sink uint64
	read := func(tx stm.Txn) {
		for j := range words {
			sink += tx.Read(&words[j])
		}
	}
	// Version every word by writing it in Mode U, then move the clock past
	// that commit: from here on the words validate in place.
	write(0)
	clk.Increment()
	b.Run("unversioned", func(b *testing.B) {
		b.ReportAllocs()
		before := sys.Stats().VersionedCommits
		for i := 0; i < b.N; i++ {
			th.ReadOnly(read)
		}
		if n := sys.Stats().VersionedCommits - before; n != 0 {
			b.Fatalf("%d of %d transactions committed versioned", n, b.N)
		}
	})
	b.Run("versioned/in-place", func(b *testing.B) {
		b.ReportAllocs()
		before := sys.Stats()
		for i := 0; i < b.N; i++ {
			th.AtomicSI(read)
		}
		st := sys.Stats()
		st.Sub(before)
		if st.VersionedCommits != uint64(b.N) || st.VersionListReads != 0 {
			b.Fatalf("%d versioned commits, %d list reads in %d transactions: not the in-place path",
				st.VersionedCommits, st.VersionListReads, b.N)
		}
	})
	b.Run("versioned/list", func(b *testing.B) {
		// Pin below an overwrite. Eight retires are fewer than the
		// reclaimer's batch, so the pinned versions stay in their lists.
		ts := clk.Load()
		write(100)
		b.ReportAllocs()
		b.ResetTimer()
		before := sys.Stats()
		for i := 0; i < b.N; i++ {
			if !th.SnapshotAt(ts, read) {
				b.Fatal("pinned snapshot not servable")
			}
		}
		st := sys.Stats()
		st.Sub(before)
		if want := uint64(b.N * len(words)); st.VersionListReads != want {
			b.Fatalf("%d list reads want %d: not every read traversed", st.VersionListReads, want)
		}
	})
}
