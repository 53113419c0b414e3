// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation at a laptop scale (see EXPERIMENTS.md for the
// mapping and recorded results; cmd/multibench runs the same experiments at
// arbitrary scale).
//
// Each BenchmarkFigN sub-benchmark reports the figure's metric as a custom
// unit: ops/s (throughput figures), rq/s (range-query completion), heapKB
// (Fig 9), ops/cpu-s (Fig 10's energy proxy).
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
	"repro/internal/workload"
)

// benchScale keeps `go test -bench=.` under a few minutes on one core.
const (
	benchPrefill  = 4096
	benchDuration = 80 * time.Millisecond
	benchThreads  = 4
)

func rqKeys(frac float64) int {
	n := int(float64(benchPrefill) * frac)
	if n < 16 {
		n = 16
	}
	return n
}

func mix(ins, del, rq float64, rqSize int) workload.Mix {
	return workload.Mix{InsertPct: ins / 100, DeletePct: del / 100, RQPct: rq / 100, RQSize: rqSize}
}

// runPoint executes one plotted point per b.N iteration and reports the
// figure's metrics.
func runPoint(b *testing.B, cfg bench.Config) {
	b.Helper()
	cfg.Prefill = benchPrefill
	cfg.Duration = benchDuration
	if cfg.Threads == 0 {
		cfg.Threads = benchThreads
	}
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
}

// BenchmarkFig1 — (a,b)-tree, 89.99% search / 0.01% RQ / 5% ins / 5% del,
// uniform keys, no dedicated updaters.
func BenchmarkFig1(b *testing.B) {
	for _, tm := range bench.TMNames {
		b.Run(tm, func(b *testing.B) {
			runPoint(b, bench.Config{TM: tm, DS: "abtree", Mix: mix(5, 5, 0.01, rqKeys(0.01))})
		})
	}
}

// BenchmarkFig6 — the main grid: {0,16 updaters} × {uniform,zipf} at the
// 0.01% RQ row (the no-RQ rows are BenchmarkFig6NoRQ).
func BenchmarkFig6(b *testing.B) {
	for _, upd := range []int{0, 16} {
		for _, zipf := range []bool{false, true} {
			dist := "uniform"
			if zipf {
				dist = "zipf"
			}
			for _, tm := range bench.TMNames {
				b.Run(fmt.Sprintf("%s/upd=%d/%s", dist, upd, tm), func(b *testing.B) {
					runPoint(b, bench.Config{
						TM: tm, DS: "abtree",
						Mix:      mix(5, 5, 0.01, rqKeys(0.01)),
						Zipf:     zipf,
						Updaters: upd,
					})
				})
			}
		}
	}
}

// BenchmarkFig6NoRQ — the grid's RQ-free columns (Multiverse must match
// DCTL here: the "preserving short query performance" claim).
func BenchmarkFig6NoRQ(b *testing.B) {
	for _, upd := range []int{0, 16} {
		for _, tm := range bench.TMNames {
			b.Run(fmt.Sprintf("upd=%d/%s", upd, tm), func(b *testing.B) {
				runPoint(b, bench.Config{TM: tm, DS: "abtree", Mix: mix(5, 5, 0, 0), Updaters: upd})
			})
		}
	}
}

// BenchmarkFig7 — the flawed-workload demonstration: 10% RQs. Without
// updaters even RQ-less TMs look fine; 4 dedicated updaters expose them
// (watch rq/s and starved).
func BenchmarkFig7(b *testing.B) {
	for _, upd := range []int{0, 4} {
		for _, tm := range bench.TMNames {
			b.Run(fmt.Sprintf("upd=%d/%s", upd, tm), func(b *testing.B) {
				runPoint(b, bench.Config{TM: tm, DS: "abtree", Mix: mix(5, 5, 10, rqKeys(0.01)), Updaters: upd})
			})
		}
	}
}

// BenchmarkFig8 — time-varying workload; the interesting output is the
// per-phase ops/s, reported as phase1..phase4 metrics (Multiverse should
// track the better of its pinned-mode variants in every phase).
func BenchmarkFig8(b *testing.B) {
	interval := 0.4 // seconds per phase
	quiet := workload.Phase{Seconds: interval, Mix: mix(10, 10, 0, 0)}
	rqy := workload.Phase{Seconds: interval, Mix: mix(10, 10, 0.01, rqKeys(0.1)), Updaters: 4}
	for _, tm := range []string{"multiverse", "multiverse-q", "multiverse-u", "dctl", "tl2"} {
		b.Run(tm, func(b *testing.B) {
			var res bench.Result
			for i := 0; i < b.N; i++ {
				res = bench.Run(bench.Config{
					TM: tm, DS: "abtree",
					Threads:     benchThreads,
					Prefill:     benchPrefill,
					SampleEvery: 100 * time.Millisecond,
					Phases:      []workload.Phase{quiet, rqy, quiet, rqy},
				})
			}
			// Aggregate samples into the four phases.
			phase := make([]float64, 4)
			for _, s := range res.Series {
				p := int(s.At.Seconds() / interval)
				if p > 3 {
					p = 3
				}
				phase[p] += float64(s.Ops)
			}
			for i, ops := range phase {
				b.ReportMetric(ops/interval, fmt.Sprintf("phase%d-ops/s", i+1))
			}
		})
	}
}

// BenchmarkFig9 — peak memory for the fig6 row-1 workloads (heapKB metric).
func BenchmarkFig9(b *testing.B) {
	for _, rq := range []float64{0, 0.01} {
		for _, tm := range bench.TMNames {
			b.Run(fmt.Sprintf("rq=%.2f%%/%s", rq, tm), func(b *testing.B) {
				runPoint(b, bench.Config{TM: tm, DS: "abtree", Mix: mix(5, 5, rq, rqKeys(0.01))})
			})
		}
	}
}

// BenchmarkFig10 — throughput per CPU-second (the RAPL joules proxy) with
// 16 dedicated updaters (ops/cpu-s metric).
func BenchmarkFig10(b *testing.B) {
	for _, rq := range []float64{0, 0.01} {
		for _, tm := range bench.TMNames {
			b.Run(fmt.Sprintf("rq=%.2f%%/%s", rq, tm), func(b *testing.B) {
				runPoint(b, bench.Config{TM: tm, DS: "abtree", Mix: mix(5, 5, rq, rqKeys(0.01)), Updaters: 16})
			})
		}
	}
}

// BenchmarkFig11 — internal AVL tree, 0.01% RQ, {0,16 updaters}.
func BenchmarkFig11(b *testing.B) {
	for _, upd := range []int{0, 16} {
		for _, tm := range bench.TMNames {
			b.Run(fmt.Sprintf("upd=%d/%s", upd, tm), func(b *testing.B) {
				runPoint(b, bench.Config{TM: tm, DS: "avl", Mix: mix(5, 5, 0.01, rqKeys(0.01)), Updaters: upd})
			})
		}
	}
}

// BenchmarkFig12 — external BST, 0.01% RQ, {0,16 updaters}.
func BenchmarkFig12(b *testing.B) {
	for _, upd := range []int{0, 16} {
		for _, tm := range bench.TMNames {
			b.Run(fmt.Sprintf("upd=%d/%s", upd, tm), func(b *testing.B) {
				runPoint(b, bench.Config{TM: tm, DS: "extbst", Mix: mix(5, 5, 0.01, rqKeys(0.01)), Updaters: upd})
			})
		}
	}
}

// BenchmarkFig13 — hashmap with atomic size queries, {1,16 updaters}.
func BenchmarkFig13(b *testing.B) {
	for _, upd := range []int{1, 16} {
		for _, tm := range bench.TMNames {
			b.Run(fmt.Sprintf("upd=%d/%s", upd, tm), func(b *testing.B) {
				runPoint(b, bench.Config{TM: tm, DS: "hashmap", Mix: mix(5, 5, 0.01, 0), Updaters: upd, SizeQueries: true})
			})
		}
	}
}

// BenchmarkFig15 — AVL with large RQs (10% of prefill), 16 updaters: the
// workload where versioning matters most.
func BenchmarkFig15(b *testing.B) {
	for _, tm := range bench.TMNames {
		b.Run(tm, func(b *testing.B) {
			runPoint(b, bench.Config{TM: tm, DS: "avl", Mix: mix(5, 5, 0.01, rqKeys(0.1)), Updaters: 16})
		})
	}
}

// BenchmarkAblation — Multiverse design-choice ablations from DESIGN.md:
// pinned modes (what dynamic switching buys), no bloom filters (what the
// filters buy on the versioned-check path), no unversioning (what bounded
// version lists buy).
func BenchmarkAblation(b *testing.B) {
	variants := []string{"multiverse", "multiverse-q", "multiverse-u", "multiverse-nobloom", "multiverse-nounversion"}
	for _, v := range variants {
		b.Run(v, func(b *testing.B) {
			runPoint(b, bench.Config{TM: v, DS: "abtree", Mix: mix(5, 5, 0.01, rqKeys(0.01)), Updaters: 8})
		})
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
