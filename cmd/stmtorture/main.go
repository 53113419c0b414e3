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
// P-compositional checker by default (-checker selects monolithic or a
// both-and-compare differential mode), which scales to 100k+-op histories.
// On failure it shrinks the workload while the violation still reproduces,
// prints a minimized reproducer command line, and promotes the failing
// configuration into the adaptive seed corpus (-corpus, replayed forever
// after by internal/stmtest's TestSeedCorpus).
//
//	stmtorture -tm multiverse -workload hist -dur 30s -seed 1
//
// Soak mode records one long history per round instead of many short ones
// — each round runs for -soak, capped at -ops operations per thread — and
// is the dedicated hammer for Mode U ↔ Q transition storms under mixed
// SI/update load, which only show up in histories far past the monolithic
// checker's reach:
//
//	stmtorture -tm multiverse-eager -workload hist -soak 30s -dur 10m
//
// The crash workload (not part of -workload all; it needs a disk) tortures
// the persistence subsystem: rounds of WAL-backed load that hard-stop
// mid-traffic — abandoning the live System, sometimes tearing the active
// segment — recover from disk, and audit the recovered state: exact
// equality after a Sync barrier, and a history-checked prefix-consistency
// audit (one synthetic whole-window observation per key, decided by the
// partitioned checker) for mid-traffic crashes:
//
//	stmtorture -tm multiverse -workload crash -dur 30s -threads 4
//
// The faultdisk workload (also disk-bound, only runs when named) tortures
// the WAL's failure plane instead of its crash path: seeded fault schedules
// (internal/fault) fail writes, fsyncs, opens and checkpoint images *while
// the process lives*, rotating degraded mode (stall/reject) and fsync
// policy per round. Healed rounds then repair the disk, require Sync to
// return nil, crash, recover, and demand the exact acked state back (the
// no-silent-loss invariant); hard rounds crash mid-degraded and audit
// prefix consistency of whatever survived:
//
//	stmtorture -tm multiverse -workload faultdisk -dur 30s -threads 4
//
// The socket workload (only runs when named) drives the crash workload's
// recorded-history audit through cmd/stmserve's wire protocol over real
// loopback TCP: rounds serve a WAL-backed map, hammer it through pipelined
// client connections while fault.Injector schedules tear request frames and
// sever connections mid-request, then drain, crash, recover, and demand
// both exact equality with the drained state (nothing acked over the wire
// may be lost) and prefix consistency of the recorded history:
//
//	stmtorture -tm multiverse -workload socket -dur 30s -threads 4
//
// The replica workload (only runs when named) tortures log shipping: rounds
// mirror a loaded leader's WAL directory into a follower copy over loopback
// TCP while fault.Injector schedules tear frames and sever the shipping
// connection (the channel redials and resyncs from its manifest), with a
// checkpoint truncating segments under the shipper mid-window. Drained
// rounds demand the follower converge on exactly the leader's acked state
// and promote to the same image; sever rounds promote from the half-shipped
// copy and audit prefix consistency of whatever survived:
//
//	stmtorture -tm multiverse -workload replica -dur 30s -threads 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/histcheck"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/stm"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

// notDurable reports (and says so on stdout) that tm cannot run a WAL-backed
// workload; the registry decides, so the torture matrix and wal.Open agree.
func notDurable(workload, tm string) bool {
	if registry.Durable(tm) {
		return false
	}
	fmt.Printf("%-8s tm=%-12s SKIPPED: backend cannot carry a WAL (needs snapshot reads and commit observation)\n", workload, tm)
	return true
}

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

// selectWorkloads resolves the -workload flag into the workloads to run and
// the ones "all" deliberately leaves out (disk- and socket-bound tortures
// that need a tempdir or a loopback listener and only run when named). An
// unknown name is an error, not an empty run.
func selectWorkloads(wl string) (run, skipped []string, err error) {
	inProcess := []string{"bank", "pairs", "ledger", "hist"}
	standalone := []string{"crash", "faultdisk", "socket", "replica"}
	if wl == "all" {
		return inProcess, standalone, nil
	}
	for _, w := range append(append([]string{}, inProcess...), standalone...) {
		if wl == w {
			return []string{wl}, nil, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown -workload %q (want %s, %s, or all)",
		wl, strings.Join(inProcess, ", "), strings.Join(standalone, ", "))
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
	checker := flag.String("checker", "partitioned", "hist: partitioned, monolithic, or both (compare verdicts)")
	corpus := flag.String("corpus", "testdata/seeds", "hist: write failing configurations here for stmtest replay (empty = off)")
	minModeSw := flag.Uint64("min-mode-switches", 0, "hist: fail unless the TM performed at least this many mode transitions across all rounds (soak guard: a Mode U ↔ Q storm that silently stops transitioning must fail the job)")
	forceViolation := flag.Bool("force-violation", false, "inject one synthetic violation after the run (exercises the failure path: flight-recorder dump, exit 1)")
	flag.Parse()

	switch *checker {
	case "partitioned", "monolithic", "both":
	default:
		fmt.Printf("unknown -checker %q (want partitioned, monolithic, or both)\n", *checker)
		os.Exit(2)
	}

	runList, skipped, err := selectWorkloads(*wl)
	if err != nil {
		fmt.Println(err)
		os.Exit(2)
	}
	selected := func(name string) bool {
		for _, w := range runList {
			if w == name {
				return true
			}
		}
		return false
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

	run := func(name string, fn func(sys stm.System, stop *atomic.Bool, rep *report)) bool {
		sys := bench.NewTM(*tm, 1<<16)
		defer sys.Close()
		var stop atomic.Bool
		var rep report
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn(sys, &stop, &rep)
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
	if selected("bank") {
		ok = run("bank", func(sys stm.System, stop *atomic.Bool, rep *report) { bank(sys, stop, rep, *threads) }) && ok
	}
	if selected("pairs") {
		ok = run("pairs", func(sys stm.System, stop *atomic.Bool, rep *report) { pairToggle(sys, stop, rep, *threads) }) && ok
	}
	if selected("ledger") {
		ok = run("ledger", func(sys stm.System, stop *atomic.Bool, rep *report) { ledger(sys, stop, rep, *threads) }) && ok
	}
	if selected("hist") {
		ops := *opsPer
		if ops <= 0 {
			if *soak > 0 {
				ops = 50000
			} else {
				ops = 300
			}
		}
		cfg := histConfig{
			tm: *tm, ds: *dsName, profile: *profName,
			threads: *threads, ops: ops, seed: *seed, dur: *dur,
			soak: *soak, checker: *checker, corpus: *corpus,
			minModeSwitches: *minModeSw,
		}
		ok = histTorture(cfg) && ok
	}
	if selected("crash") {
		ok = crashTorture(crashConfig{tm: *tm, threads: *threads, seed: *seed, dur: *dur}) && ok
	}
	if selected("faultdisk") {
		ok = faultdiskTorture(faultdiskConfig{tm: *tm, threads: *threads, seed: *seed, dur: *dur}) && ok
	}
	if selected("socket") {
		ok = socketTorture(socketConfig{tm: *tm, threads: *threads, seed: *seed, dur: *dur}) && ok
	}
	if selected("replica") {
		ok = replicaTorture(replicaConfig{tm: *tm, threads: *threads, seed: *seed, dur: *dur}) && ok
	}
	// The disk- and socket-bound workloads never ride "all" (they need a
	// real tempdir/loopback and run much longer per round); say so instead
	// of silently narrowing coverage.
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
	checker         string        // partitioned, monolithic, both
	corpus          string        // failing-seed corpus dir ("" = off)
	minModeSwitches uint64        // fail if total mode transitions fall below this
}

// roundSeed derives round r's seed so that a reproducer run (-seed <failing
// seed>, one round) hits round 0 with exactly the failing seed.
func (c histConfig) roundSeed(r int) uint64 {
	return c.seed + uint64(r)*0x9e3779b97f4a7c15
}

// histCheck runs the selected checker(s). In "both" mode a verdict
// disagreement is itself reported as a violation: a partitioned rejection
// of a monolithically accepted history is a checker soundness bug, and the
// reverse marks a cross-key coupling the conservative pass cannot see —
// either deserves a loud report, which makes "both" a differential torture
// for the checkers themselves (only sensible at sizes the monolithic
// search can finish).
func histCheck(checker string, hist []histcheck.Op) histcheck.Result {
	switch checker {
	case "monolithic":
		return histcheck.Check(hist, 0)
	case "both":
		mono := histcheck.Check(hist, 0)
		part := histcheck.CheckPartitioned(hist, 0)
		if !mono.LimitHit && !part.LimitHit && mono.Ok != part.Ok {
			detail := mono.Reason
			if !part.Ok {
				detail = part.Reason
			}
			return histcheck.Result{Reason: fmt.Sprintf(
				"CHECKER DISAGREEMENT: monolithic ok=%v, partitioned ok=%v (rejection: %s)",
				mono.Ok, part.Ok, detail)}
		}
		// A definite rejection from either oracle outranks the other's
		// undecided (budget-tripped) verdict.
		if !part.Ok && !part.LimitHit {
			return part
		}
		if !mono.Ok && !mono.LimitHit {
			return mono
		}
		if part.LimitHit {
			return part
		}
		return mono
	default: // partitioned
		return histcheck.CheckPartitioned(hist, 0)
	}
}

// histRound runs one record-and-check round; it reports the checker
// result, the number of checked ops, and the per-thread op budget a corpus
// entry needs to replay the round: the attempted count for fixed-size
// rounds (discarded ops consume attempts and RNG draws too), and the
// largest per-thread recorded count for soak rounds, where the deadline —
// not the budget — decided the length.
func histRound(c histConfig, dsName string, p histcheck.Profile, threads, ops int, seed uint64) (histcheck.Result, int, int, stm.Stats) {
	sys := bench.NewTM(c.tm, 1<<16)
	defer sys.Close()
	capacity := 4 * threads * ops
	if capacity > 1<<16 {
		// Soak slabs would otherwise size the structures (and the
		// hashmap's 10× bucket array) by the op budget; the profiles' key
		// ranges are tiny, so past this point extra capacity only buys
		// slower full-structure scans and memory.
		capacity = 1 << 16
	}
	m := bench.NewDS(dsName, capacity)
	h := histcheck.RunHistoryFor(sys, m, p, threads, ops, seed, c.soak)
	st := sys.Stats()
	if h.Dropped() != 0 {
		return histcheck.Result{Reason: fmt.Sprintf("harness bug: %d ops dropped", h.Dropped())}, 0, 0, st
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
	return histCheck(c.checker, hist), len(hist), replayOps, st
}

// histTorture is the seeded, duration-bounded fuzz driver: rounds rotate
// through the selected data structures and op profiles until the deadline
// (in soak mode each round is itself a -soak-long recording). Any
// non-linearizable history fails the torture after a best-effort shrink of
// the reproducing workload, and the failing configuration is promoted into
// the seed corpus.
func histTorture(c histConfig) bool {
	structures := bench.DSNames
	if c.ds != "all" {
		known := false
		for _, name := range bench.DSNames {
			known = known || name == c.ds
		}
		if !known {
			fmt.Printf("unknown data structure %q (want one of %v or all)\n", c.ds, bench.DSNames)
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
		rs := c.roundSeed(rounds)
		res, n, maxPerThread, st := histRound(c, dsName, p, c.threads, c.ops, rs)
		rounds++
		checkedOps += n
		relaxed += res.Relaxed
		modeSwitches += st.ModeSwitches
		if res.LimitHit {
			undecided++
			continue
		}
		if !res.Ok {
			fmt.Printf("%-8s tm=%-12s VIOLATION round=%d ds=%s profile=%s seed=%d ops=%d\n  %s\n",
				mode, c.tm, rounds-1, dsName, p.Name, rs, n, res.Reason)
			// Only genuine non-linearizable verdicts are promoted: a
			// checker disagreement or a harness bug would sit in the
			// corpus as an entry the partitioned replay can never re-fire.
			if strings.HasPrefix(res.Reason, "not linearizable") {
				writeCorpusEntry(c, dsName, p.Name, maxPerThread, rs, res.Reason)
			}
			minimizeHist(c, dsName, p, maxPerThread, rs)
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
// this best-effort: each candidate gets a few attempts), and prints the
// smallest reproducer found. Minimization replays at fixed op counts (no
// soak deadline) so the printed reproducer is a plain, seed-echoing
// command line; with the partitioned checker the verdict and failure
// report are deterministic for a given recorded history (stable key order,
// no map-iteration nondeterminism), though each replay re-races the
// threads and so re-records its own history.
func minimizeHist(c histConfig, dsName string, p histcheck.Profile, ops int, seed uint64) {
	fixed := c
	fixed.soak = 0
	if ops < 1 {
		ops = c.ops
	}
	reproduces := func(threads, ops int) bool {
		for attempt := 0; attempt < 4; attempt++ {
			res, _, _, _ := histRound(fixed, dsName, p, threads, ops, seed)
			if !res.Ok && !res.LimitHit {
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
	fmt.Printf("  minimized reproducer (seed %d):\n    go run ./cmd/stmtorture -workload hist -tm %s -ds %s -profile %s -threads %d -ops %d -seed %d -checker %s -dur 1s\n",
		seed, c.tm, dsName, p.Name, threads, ops, seed, c.checker)
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
