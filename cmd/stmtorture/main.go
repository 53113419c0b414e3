// Command stmtorture hammers a TM with invariant-checking and
// history-checking workloads — a long-running correctness harness
// complementary to the unit tests.
//
//	stmtorture -tm multiverse -workload all -dur 10s -threads 8
//
// Invariant workloads maintain a global invariant that any atomicity or
// opacity bug breaks within seconds:
//
//	bank   — random transfers; every audited snapshot must sum to the total
//	pairs  — (a,b)-tree pair toggling; every range query counts exactly N
//	ledger — TPC-C payments; warehouse YTD must equal its districts' sum
//
// The hist workload is a seeded, duration-bounded fuzzer: rounds of mixed
// operations (zipf-skewed keys, range-heavy, size-heavy, churn — see
// histcheck.Profiles) are recorded as full concurrent histories and checked
// for linearizability, validating every individual operation result rather
// than one aggregate invariant. Histories run through the partitioned
// P-compositional checker, which scales to 100k+-op histories (the
// monolithic Wing–Gong search stays in internal/histcheck as the reference
// the differential tests compare it against). On failure it shrinks the
// workload while the violation still reproduces, prints a minimized
// reproducer command line and the smallest failing history it recorded —
// the operations (-key K narrows them to one key), every key's projection
// verdict, and the fragment breakdown of the keys that are not green — and
// promotes the failing configuration into the adaptive seed corpus
// (-corpus, replayed forever after by internal/stmtest's TestSeedCorpus).
//
//	stmtorture -tm multiverse -workload hist -dur 30s -seed 1
//	stmtorture -tm dctl -workload hist -ds extbst -profile zipf -seed <seed> -dur 1s -key 13
//
// Soak mode records one long history per round instead of many short ones
// — each round runs for -soak, capped at -ops operations per thread — and
// is the dedicated hammer for Mode U ↔ Q transition storms under mixed
// SI/update load, which only show up in histories far past the monolithic
// checker's reach:
//
//	stmtorture -tm multiverse-eager -workload hist -soak 30s -dur 10m
//
// The four log-backed workloads below are scenario tables over one round
// engine (engine.go): every round's parameters — fault site, audit mode,
// degraded mode, fsync policy, shard count, data structure, seed — derive
// from the round index, so a new fault schedule is a table row and a
// failing round is reached again by the same -seed. None is part of
// -workload all (they need a disk or a loopback listener), and a -tm that
// cannot carry a WAL skips them.
//
// The crash workload tortures the persistence subsystem: rounds of
// WAL-backed load that hard-stop mid-traffic — abandoning the live System,
// sometimes tearing the active segment — recover from disk, and audit the
// recovered state: exact equality after a Sync barrier, and a
// history-checked prefix-consistency audit (one synthetic whole-window
// observation per key, decided by the partitioned checker) for mid-traffic
// crashes:
//
//	stmtorture -tm multiverse -workload crash -dur 30s -threads 4
//
// The faultdisk workload tortures the WAL's failure plane instead of its
// crash path: seeded fault schedules (internal/fault) fail writes, fsyncs,
// opens and checkpoint images *while the process lives*, rotating degraded
// mode (stall/reject) and fsync policy per round. Healed rounds then repair
// the disk, require Sync to return nil, crash, recover, and demand the
// exact acked state back (the no-silent-loss invariant); hard rounds crash
// mid-degraded and audit prefix consistency of whatever survived:
//
//	stmtorture -tm multiverse -workload faultdisk -dur 30s -threads 4
//
// The socket workload drives the crash workload's recorded-history audit
// through cmd/stmserve's wire protocol over real loopback TCP: rounds serve
// a WAL-backed map, hammer it through pipelined client connections while
// fault.Injector schedules tear request frames and sever connections
// mid-request, then drain, crash, recover, and demand both exact equality
// with the drained state (nothing acked over the wire may be lost) and
// prefix consistency of the recorded history:
//
//	stmtorture -tm multiverse -workload socket -dur 30s -threads 4
//
// The replica workload tortures log shipping: rounds mirror a loaded
// leader's WAL directory into a follower copy over loopback TCP while
// fault.Injector schedules tear frames, sever the shipping connection (the
// channel redials and resyncs from its manifest) and fail a segment read
// under the follower's tail, with a checkpoint truncating segments under
// the shipper mid-window. Drained rounds demand the follower converge on
// exactly the leader's acked state and promote to the same image; sever
// rounds promote from the half-shipped copy and audit prefix consistency of
// whatever survived:
//
//	stmtorture -tm multiverse -workload replica -dur 30s -threads 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/histcheck"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/stm"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

// torRec is the torture-wide flight recorder: the WAL-backed workloads
// thread it through their logs, and a failed run dumps the ring — the last
// few thousand abort/degrade/heal/checkpoint events leading up to the
// violation are usually the difference between a reproducer and a shrug.
var torRec = obs.NewRecorder(obs.DefaultRingSize)

type report struct {
	ops        atomic.Uint64
	audits     atomic.Uint64
	violations atomic.Uint64
}

// workloads is every workload by name, in run order: an invariant workload
// (inv), a log-backed scenario (scen), or — neither — the history fuzzer.
// Scenarios need a tempdir or a loopback listener and run much longer per
// round, so "all" leaves them out and they only run when named.
var workloads = []struct {
	name string
	inv  func(sys stm.System, stop *atomic.Bool, rep *report, threads int)
	scen *scenario
}{
	{name: "bank", inv: bank},
	{name: "pairs", inv: pairToggle},
	{name: "ledger", inv: ledger},
	{name: "hist"},
	{name: "crash", scen: &crashScenario},
	{name: "faultdisk", scen: &faultdiskScenario},
	{name: "socket", scen: &socketScenario},
	{name: "replica", scen: &replicaScenario},
}

// selectWorkloads resolves the -workload flag into the workloads to run and
// the ones "all" deliberately leaves out. An unknown name is an error, not
// an empty run.
func selectWorkloads(wl string) (run, skipped []string, err error) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		switch {
		case wl == w.name:
			return []string{wl}, nil, nil
		case w.scen == nil:
			run = append(run, w.name)
		default:
			skipped = append(skipped, w.name)
		}
	}
	if wl == "all" {
		return run, skipped, nil
	}
	return nil, nil, fmt.Errorf("unknown -workload %q (want %s, or all)", wl, strings.Join(names, ", "))
}

// baselineMaxAttempts bounds retries for the TMs without a long-read escape
// hatch (the bench harness's bound), so a starved audit is an answer rather
// than a hang.
const baselineMaxAttempts = 20000

// resolveTM checks the -tm name against the registry once, before any
// workload runs: an unknown name is the registry's error (it lists the
// names); a known one reports whether it can carry a WAL, which the
// log-backed workloads need.
func resolveTM(name string) (durable bool, err error) {
	sys, err := registry.NewTM(name, registry.Params{LockTable: 64})
	if err != nil {
		return false, err
	}
	sys.Close()
	return registry.Durable(name), nil
}

// must unwraps a registry construction whose name was resolved up front.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// newTM builds the TM under torture.
func newTM(name string) stm.System {
	return must(registry.NewTM(name, registry.Params{LockTable: 1 << 16, MaxAttempts: baselineMaxAttempts}))
}

func main() {
	tm := flag.String("tm", "multiverse", "TM under torture")
	wl := flag.String("workload", "all", "bank, pairs, ledger, hist, crash, faultdisk, socket, replica, or all (crash, faultdisk, socket and replica only run when named)")
	threads := flag.Int("threads", 4, "mutator threads per workload")
	dur := flag.Duration("dur", 5*time.Second, "torture duration (per workload)")
	seed := flag.Uint64("seed", 1, "hist: base seed (round r uses a seed derived from it)")
	dsName := flag.String("ds", "all", "hist: data structure (abtree, avl, extbst, hashmap, or all)")
	profName := flag.String("profile", "all", "hist: op profile (see histcheck.Profiles, or all)")
	opsPer := flag.Int("ops", 0, "hist: operations per thread per round (0 = 300, or a 50000 slab cap in soak mode)")
	soak := flag.Duration("soak", 0, "hist: record one duration-bounded long history per round instead of fixed-size rounds")
	key := flag.Uint64("key", 0, "hist: in a failing round's report, dump only ops touching this key (0 = all)")
	corpus := flag.String("corpus", "testdata/seeds", "hist: write failing configurations here for stmtest replay (empty = off)")
	minModeSw := flag.Uint64("min-mode-switches", 0, "hist: fail unless the TM performed at least this many mode transitions across all rounds (soak guard: a Mode U ↔ Q storm that silently stops transitioning must fail the job)")
	forceViolation := flag.Bool("force-violation", false, "inject one synthetic violation after the run (exercises the failure path: flight-recorder dump, exit 1)")
	flag.Parse()

	runList, skipped, err := selectWorkloads(*wl)
	var durable bool
	if err == nil {
		durable, err = resolveTM(*tm)
	}
	if err != nil {
		fmt.Println(err)
		os.Exit(2)
	}

	// On machines with fewer cores than torture threads, goroutines only
	// interleave at yield points and long transactions almost never race —
	// no conflicts, no versioned-path escalation, no mode storms (the same
	// rationale as the bench harness). Oversubscribing GOMAXPROCS restores
	// mid-transaction preemption, making the torture (and the
	// -min-mode-switches guard) meaningful regardless of runner size.
	if want := *threads + 1; runtime.GOMAXPROCS(0) < want {
		runtime.GOMAXPROCS(want)
	}

	run := func(name string, fn func(sys stm.System, stop *atomic.Bool, rep *report, threads int)) bool {
		sys := newTM(*tm)
		defer sys.Close()
		var stop atomic.Bool
		var rep report
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn(sys, &stop, &rep, *threads)
		}()
		time.Sleep(*dur)
		stop.Store(true)
		<-done
		st := sys.Stats()
		fmt.Printf("%-8s tm=%-12s ops=%-10d audits=%-8d violations=%-4d commits=%d aborts=%d starved=%d\n",
			name, *tm, rep.ops.Load(), rep.audits.Load(), rep.violations.Load(),
			st.Commits, st.Aborts, st.Starved)
		return rep.violations.Load() == 0
	}

	ok := true
	for _, w := range workloads {
		switch {
		case !slices.Contains(runList, w.name):
		case w.inv != nil:
			ok = run(w.name, w.inv) && ok
		case w.scen != nil && !durable:
			// The registry decides, so the torture matrix and wal.Open agree.
			fmt.Printf("%-8s tm=%-12s SKIPPED: backend cannot carry a WAL (needs snapshot reads and commit observation)\n", w.name, *tm)
		case w.scen != nil:
			ok = w.scen.torture(*tm, *threads, *seed, *dur) && ok
		default:
			ops := *opsPer
			if ops <= 0 {
				if *soak > 0 {
					ops = 50000
				} else {
					ops = 300
				}
			}
			ok = histTorture(histConfig{
				tm: *tm, ds: *dsName, profile: *profName,
				threads: *threads, ops: ops, seed: *seed, dur: *dur,
				soak: *soak, key: *key, corpus: *corpus,
				minModeSwitches: *minModeSw,
			}) && ok
		}
	}
	// Say what "all" left out instead of silently narrowing coverage.
	for _, name := range skipped {
		fmt.Printf("%-8s skipped: run with -workload %s\n", name, name)
	}
	if *forceViolation {
		fmt.Println("forced violation (-force-violation): exercising the failure path")
		torRec.Record(obs.EvViolation, 1, 0, 0)
		ok = false
	}
	if !ok {
		if !*forceViolation {
			torRec.Record(obs.EvViolation, 0, 0, 0)
		}
		fmt.Println("TORTURE FAILED: violations detected")
		torRec.Dump(os.Stderr)
		os.Exit(1)
	}
	fmt.Println("torture passed")
}

// histConfig parameterizes one history-fuzz session; a failing round is
// reproduced by feeding the printed values straight back into the flags.
type histConfig struct {
	tm, ds, profile string
	threads, ops    int
	seed            uint64
	dur             time.Duration
	soak            time.Duration // > 0: duration-bounded long histories
	key             uint64        // failure report: dump only ops touching this key (0 = all)
	corpus          string        // failing-seed corpus dir ("" = off)
	minModeSwitches uint64        // fail if total mode transitions fall below this
}

// roundSeed derives round r's seed from the -seed flag, for the hist fuzzer
// and the scenario engine alike: a reproducer run with the same base
// re-derives the same seed at the same round, and a hist reproducer (-seed
// <failing seed>, one round) hits round 0 with exactly the failing seed.
func roundSeed(base uint64, r int) uint64 {
	return base + uint64(r)*0x9e3779b97f4a7c15
}

// histRound runs one record-and-check round through the partitioned
// P-compositional checker; it reports the verdict, the recorded history,
// and the per-thread op budget a corpus entry needs to replay the round:
// the attempted count for fixed-size rounds (discarded ops consume attempts
// and RNG draws too), and the largest per-thread recorded count for soak
// rounds, where the deadline — not the budget — decided the length.
func histRound(c histConfig, dsName string, p histcheck.Profile, threads, ops int, seed uint64) (histcheck.Result, []histcheck.Op, int, stm.Stats) {
	sys := newTM(c.tm)
	defer sys.Close()
	// Soak slabs would otherwise size the structures (and the hashmap's
	// 10× bucket array) by the op budget; the profiles' key ranges are tiny,
	// so past this point extra capacity only buys slower full-structure
	// scans and memory.
	m := must(registry.NewDS(dsName, min(4*threads*ops, 1<<16)))
	h := histcheck.RunHistoryFor(sys, m, p, threads, ops, seed, c.soak)
	st := sys.Stats()
	if h.Dropped() != 0 {
		return histcheck.Result{Reason: fmt.Sprintf("harness bug: %d ops dropped", h.Dropped())}, nil, 0, st
	}
	hist := h.Ops()
	replayOps := ops
	if c.soak > 0 {
		perThread := make(map[int]int)
		for i := range hist {
			perThread[hist[i].Thread]++
		}
		replayOps = 0
		for _, n := range perThread {
			if n > replayOps {
				replayOps = n
			}
		}
	}
	return histcheck.CheckPartitioned(hist, 0), hist, replayOps, st
}

// histTorture is the seeded, duration-bounded fuzz driver: rounds rotate
// through the selected data structures and op profiles until the deadline
// (in soak mode each round is itself a -soak-long recording). Any
// non-linearizable history fails the torture after a best-effort shrink of
// the reproducing workload, and the failing configuration is promoted into
// the seed corpus.
func histTorture(c histConfig) bool {
	structures := []string{"abtree", "avl", "extbst", "hashmap"}
	if c.ds != "all" {
		if _, err := registry.NewDS(c.ds, 1); err != nil {
			fmt.Println(err)
			return false
		}
		structures = []string{c.ds}
	}
	profiles := histcheck.Profiles()
	if c.profile != "all" {
		p, ok := histcheck.ProfileByName(c.profile)
		if !ok {
			fmt.Printf("unknown profile %q\n", c.profile)
			return false
		}
		profiles = []histcheck.Profile{p}
	}
	mode := "hist"
	if c.soak > 0 {
		mode = "soak"
	}
	deadline := time.Now().Add(c.dur)
	rounds, checkedOps, undecided, relaxed := 0, 0, 0, 0
	var modeSwitches uint64
	for time.Now().Before(deadline) {
		dsName := structures[rounds%len(structures)]
		p := profiles[(rounds/len(structures))%len(profiles)]
		rs := roundSeed(c.seed, rounds)
		res, hist, maxPerThread, st := histRound(c, dsName, p, c.threads, c.ops, rs)
		rounds++
		checkedOps += len(hist)
		relaxed += res.Relaxed
		modeSwitches += st.ModeSwitches
		if res.LimitHit {
			undecided++
			continue
		}
		if !res.Ok {
			fmt.Printf("%-8s tm=%-12s VIOLATION round=%d ds=%s profile=%s seed=%d ops=%d\n  %s\n",
				mode, c.tm, rounds-1, dsName, p.Name, rs, len(hist), res.Reason)
			// Only genuine non-linearizable verdicts are promoted: a
			// harness bug would sit in the corpus as an entry the replay
			// can never re-fire.
			if strings.HasPrefix(res.Reason, "not linearizable") {
				writeCorpusEntry(c, dsName, p.Name, maxPerThread, rs, res.Reason)
			}
			minimizeHist(c, dsName, p, maxPerThread, rs, hist)
			return false
		}
	}
	fmt.Printf("%-8s tm=%-12s rounds=%-6d ops-checked=%-9d undecided=%-3d relaxed=%-4d mode-switches=%-6d violations=0\n",
		mode, c.tm, rounds, checkedOps, undecided, relaxed, modeSwitches)
	if c.minModeSwitches > 0 && modeSwitches < c.minModeSwitches {
		// The soak exists to storm Mode U ↔ Q transitions; a run that
		// stopped transitioning is not testing what it claims to test
		// (e.g. a CAS heuristic regression pinning the TM in one mode).
		fmt.Printf("%-8s tm=%-12s MODE-TRANSITION STALL: %d mode switches over %d rounds (want >= %d)\n",
			mode, c.tm, modeSwitches, rounds, c.minModeSwitches)
		return false
	}
	return true
}

// writeCorpusEntry promotes a failing round into the adaptive seed corpus
// so internal/stmtest replays it as a fixed regression from now on.
func writeCorpusEntry(c histConfig, dsName, profile string, ops int, seed uint64, reason string) {
	if c.corpus == "" {
		return
	}
	if ops < 1 {
		ops = c.ops
	}
	entry := struct {
		TM      string `json:"tm"`
		DS      string `json:"ds"`
		Profile string `json:"profile"`
		Threads int    `json:"threads"`
		Ops     int    `json:"ops"`
		Seed    uint64 `json:"seed"`
		Note    string `json:"note"`
	}{c.tm, dsName, profile, c.threads, ops, seed, "auto-promoted by stmtorture: " + reason}
	blob, err := json.MarshalIndent(entry, "", "  ")
	if err != nil {
		fmt.Printf("  corpus: marshal failed: %v\n", err)
		return
	}
	if err := os.MkdirAll(c.corpus, 0o755); err != nil {
		fmt.Printf("  corpus: %v (run from the repo root to promote the seed)\n", err)
		return
	}
	path := filepath.Join(c.corpus,
		fmt.Sprintf("hist-%s-%s-%s-seed%d.json", c.tm, dsName, profile, seed))
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fmt.Printf("  corpus: %v\n", err)
		return
	}
	fmt.Printf("  corpus: promoted failing seed to %s\n", path)
}

// minimizeHist shrinks a failing round — halving ops per thread, then
// dropping threads — as long as the violation still reproduces (races make
// this best-effort: each candidate gets a few attempts), prints the
// smallest reproducer found and then the report of the smallest failing
// history it saw (failing is the round's own, for when nothing smaller
// reproduces). Minimization replays at fixed op counts (no soak deadline)
// so the printed reproducer is a plain, seed-echoing command line; each
// replay re-races the threads and so re-records its own history.
func minimizeHist(c histConfig, dsName string, p histcheck.Profile, ops int, seed uint64, failing []histcheck.Op) {
	fixed := c
	fixed.soak = 0
	if ops < 1 {
		ops = c.ops
	}
	reproduces := func(threads, ops int) bool {
		for attempt := 0; attempt < 4; attempt++ {
			res, hist, _, _ := histRound(fixed, dsName, p, threads, ops, seed)
			if !res.Ok && !res.LimitHit && hist != nil {
				failing = hist
				return true
			}
		}
		return false
	}
	threads := c.threads
	for ops > 25 && reproduces(threads, ops/2) {
		ops /= 2
	}
	for threads > 2 && reproduces(threads-1, ops) {
		threads--
	}
	fmt.Printf("  minimized reproducer (seed %d):\n    go run ./cmd/stmtorture -workload hist -tm %s -ds %s -profile %s -threads %d -ops %d -seed %d -dur 1s\n",
		seed, c.tm, dsName, p.Name, threads, ops, seed)
	histReport(os.Stdout, failing, seed, c.key)
}

// histReport dumps a non-linearizable history so the violation can be read
// by hand: the operations (only those touching key `only`, when non-zero),
// then each key's point-op subhistory on its own, in ascending key order,
// and for every key that is not green its fragment decomposition: the
// quiescent-point cuts the partitioned checker searches, each fragment with
// its tick window and an independently checked verdict from the monolithic
// reference search (a fragment is replayed from an empty map, so a red
// fragment-0 verdict always implicates its ops, while later red fragments
// may just need earlier state — the per-key verdict is the authoritative
// one). Range and size ops span keys and are excluded from projections; by
// linearizability's locality a point-op history is linearizable iff every
// per-key projection is, so a red projection always implicates its key,
// while all-green projections point at the cross-key ops — or, if there are
// none, at the checker itself (this is how its memoization bug was found).
//
// The report is deterministic for a given history: keys print in ascending
// order, fragments in tick order, the seed is echoed on every verdict
// line. Two reports that differ therefore implicate the race that recorded
// two histories, not the printer.
func histReport(w io.Writer, hist []histcheck.Op, seed, only uint64) {
	verdict := func(r histcheck.Result) string {
		switch {
		case r.LimitHit:
			return "undecided"
		case !r.Ok:
			return "VIOLATION: " + r.Reason
		}
		return "ok"
	}
	for _, op := range hist {
		if only == 0 || op.Key == only || op.Kind == histcheck.Size ||
			(op.Kind == histcheck.Range && op.Key <= only && only <= op.Val) {
			fmt.Fprintln(w, "  ", op)
		}
	}
	keys, byKey, cross := histcheck.PointsByKey(hist)
	fmt.Fprintf(w, "  %d keys, %d cross-key ops (seed %d)\n", len(keys), len(cross), seed)
	for _, k := range keys {
		if only != 0 && k != only {
			continue
		}
		sub := byKey[k]
		r := histcheck.CheckPartitioned(sub, 0)
		frags := histcheck.Fragments(sub)
		fmt.Fprintf(w, "  key %d projection (%d ops, %d fragments, seed %d): %s\n",
			k, len(sub), len(frags), seed, verdict(r))
		if r.Ok && !r.LimitHit {
			continue // only failing/undecided keys get the breakdown, so a soak report stays readable
		}
		for fi, frag := range frags {
			lo, hi := frag[0].Inv, frag[0].Res
			for _, op := range frag {
				hi = max(hi, op.Res)
			}
			fmt.Fprintf(w, "    fragment %d/%d ticks [%d,%d] (%d ops): %s\n",
				fi+1, len(frags), lo, hi, len(frag), verdict(histcheck.Check(frag, 0)))
			for _, op := range frag {
				fmt.Fprintln(w, "      ", op)
			}
		}
	}
}

func bank(sys stm.System, stop *atomic.Bool, rep *report, threads int) {
	const accounts = 2048
	words := make([]stm.Word, accounts)
	init := sys.Register()
	init.Atomic(func(tx stm.Txn) {
		for i := range words {
			tx.Write(&words[i], 10)
		}
	})
	init.Unregister()
	const total = accounts * 10
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			r := workload.NewRng(seed)
			for !stop.Load() {
				from, to := r.Intn(accounts), r.Intn(accounts)
				if from == to {
					continue
				}
				th.Atomic(func(tx stm.Txn) {
					a := tx.Read(&words[from])
					if a == 0 {
						return
					}
					tx.Write(&words[from], a-1)
					tx.Write(&words[to], tx.Read(&words[to])+1)
				})
				rep.ops.Add(1)
			}
		}(uint64(w + 1))
	}
	auditor := sys.Register()
	for !stop.Load() {
		var sum uint64
		if auditor.ReadOnly(func(tx stm.Txn) {
			sum = 0
			for i := range words {
				sum += tx.Read(&words[i])
			}
		}) {
			rep.audits.Add(1)
			if sum != total {
				rep.violations.Add(1)
			}
		}
	}
	auditor.Unregister()
	wg.Wait()
}

func pairToggle(sys stm.System, stop *atomic.Bool, rep *report, threads int) {
	const pairs = 512
	m := abtree.New(4 * pairs)
	init := sys.Register()
	for i := 0; i < pairs; i++ {
		ds.Insert(init, m, uint64(2*i+2), 1)
	}
	init.Unregister()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			r := workload.NewRng(seed)
			for !stop.Load() {
				p := uint64(r.Intn(pairs))
				even, odd := 2*p+2, 2*p+3
				th.Atomic(func(tx stm.Txn) {
					if m.DeleteTx(tx, even) {
						m.InsertTx(tx, odd, 1)
					} else {
						m.DeleteTx(tx, odd)
						m.InsertTx(tx, even, 1)
					}
				})
				rep.ops.Add(1)
			}
		}(uint64(w + 11))
	}
	auditor := sys.Register()
	for !stop.Load() {
		if count, _, ok := ds.Range(auditor, m, 1, 4*pairs); ok {
			rep.audits.Add(1)
			if count != pairs {
				rep.violations.Add(1)
			}
		}
	}
	auditor.Unregister()
	wg.Wait()
}

func ledger(sys stm.System, stop *atomic.Bool, rep *report, threads int) {
	db := tpcc.New(tpcc.Config{Warehouses: 1})
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := sys.Register()
			defer th.Unregister()
			r := workload.NewRng(seed)
			cfg := db.Cfg()
			for !stop.Load() {
				if db.Payment(th, 0, r.Intn(cfg.DistrictsPerW), r.Intn(cfg.CustomersPerD), uint64(r.Intn(100))+1) {
					rep.ops.Add(1)
				}
			}
		}(uint64(w + 21))
	}
	auditor := sys.Register()
	for !stop.Load() {
		if wYTD, dSum, ok := db.WarehouseYTD(auditor, 0); ok {
			rep.audits.Add(1)
			if wYTD != dSum {
				rep.violations.Add(1)
			}
		}
	}
	auditor.Unregister()
	wg.Wait()
}
