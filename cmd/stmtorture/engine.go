package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/histcheck"
	"repro/internal/wal"
)

// The log-backed workloads (crash, faultdisk, socket, replica) are four
// scenario tables over one engine: a duration loop that derives every
// round's parameters from the round index, a round scaffold that owns what
// each body would otherwise repeat (tempdirs, the base wal.Options, the
// recorded history and its workers, the mid-window checkpoint, recovery),
// and one violation report and summary line. A new fault schedule is a row
// in a scenario's site table; a scenario's body holds only what is its own.

// faultSite is one named fault schedule for a fault.Injector: over the disk
// (faultdisk), the server's conn seam (socket), or the shipping connection
// and the follower's tail reads (replica).
type faultSite struct {
	name  string
	rules []fault.Rule
}

// mode is one audit variant of a scenario; a passing round is counted under
// tally in the summary line.
type mode struct{ name, tally string }

// scenario is one log-backed workload as data. Every axis rotates at its own
// stride — value index (round/stride) % len — so the strides decorrelate and
// a long run covers the cross product; stride 0 pins an axis the scenario
// does not vary to its first value. Sites always rotate every round.
type scenario struct {
	name          string
	sites         []faultSite
	modes         []mode
	modeStride    int
	dmodeStride   int // over {stall, reject}
	policyStride  int // over {group, every-commit, none}
	shards        []int
	shardStride   int
	dsStride      int // over {hashmap, abtree}
	segBytes      int
	groupInterval time.Duration
	summary       []string // the summary line's counters, in print order
	body          func(*round) bool
}

// params is everything about one round that derives from its index.
type params struct {
	round  int
	seed   uint64
	site   faultSite
	mode   mode
	dmode  wal.DegradedMode
	policy wal.SyncPolicy
	shards int
	ds     string
}

func (s *scenario) params(base uint64, r int) params {
	at := func(stride, n int) int {
		if stride == 0 {
			return 0
		}
		return (r / stride) % n
	}
	p := params{
		round:  r,
		seed:   roundSeed(base, r),
		dmode:  []wal.DegradedMode{wal.DegradeStall, wal.DegradeReject}[at(s.dmodeStride, 2)],
		policy: []wal.SyncPolicy{wal.SyncGroup, wal.SyncEveryCommit, wal.SyncNone}[at(s.policyStride, 3)],
		shards: s.shards[at(s.shardStride, len(s.shards))],
		ds:     []string{"hashmap", "abtree"}[at(s.dsStride, 2)],
	}
	if len(s.sites) > 0 {
		p.site = s.sites[r%len(s.sites)]
	}
	if len(s.modes) > 0 {
		p.mode = s.modes[at(s.modeStride, len(s.modes))]
	}
	return p
}

func (p params) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "round=%d", p.round)
	if p.site.name != "" {
		fmt.Fprintf(&b, " site=%s", p.site.name)
	}
	if p.mode.name != "" {
		fmt.Fprintf(&b, " mode=%s", p.mode.name)
	}
	fmt.Fprintf(&b, " degraded=%s policy=%s shards=%d ds=%s round-seed=%d", p.dmode, p.policy, p.shards, p.ds, p.seed)
	return b.String()
}

// torture runs rounds until the deadline. The first failing round ends the
// run with the violation report; otherwise the summary line closes it.
func (s *scenario) torture(tm string, threads int, base uint64, dur time.Duration) bool {
	deadline := time.Now().Add(dur)
	counts := map[string]int{}
	rounds := 0
	for ; time.Now().Before(deadline); rounds++ {
		p := s.params(base, rounds)
		if !s.run(tm, threads, p, counts) {
			fmt.Printf("%-8s tm=%-12s VIOLATION %s (base seed %d)\n", s.name, tm, p, base)
			// Round parameters derive deterministically from the round
			// index, so replaying with the base seed and enough duration
			// re-executes the same round schedule — round N fails again at
			// round N (crashes themselves still race, so reproduction is
			// best-effort, as for every concurrent torture).
			fmt.Printf("  reproduce (reaches round %d deterministically): go run ./cmd/stmtorture -workload %s -tm %s -threads %d -seed %d -dur 10m\n",
				rounds, s.name, tm, threads, base)
			return false
		}
		counts[p.mode.tally]++
	}
	fmt.Printf("%-8s tm=%-12s rounds=%-5d", s.name, tm, rounds)
	for _, name := range s.summary {
		fmt.Printf(" %s=%-4d", name, counts[name])
	}
	fmt.Println(" violations=0")
	return true
}

// round is one round's scaffold: the parameters, the log options every open
// and recovery of the round starts from, the recorded history, and the
// workers' stop flag.
type round struct {
	params
	scen    *scenario
	tm      string
	threads int
	counts  map[string]int // the engine's summary counters; bodies add the named ones
	opts    wal.Options
	hist    *histcheck.History
	dirs    []string
	stop    atomic.Bool
	wg      sync.WaitGroup
}

// run executes round p of the scenario and reports whether every audit held.
func (s *scenario) run(tm string, threads int, p params, counts map[string]int) bool {
	rd := &round{params: p, scen: s, tm: tm, threads: threads, counts: counts,
		hist: histcheck.NewHistory(threads, crashSlabCap)}
	defer func() {
		for _, dir := range rd.dirs {
			os.RemoveAll(dir)
		}
	}()
	dir := rd.tempdir()
	if dir == "" {
		return false
	}
	rd.opts = wal.Options{
		Dir: dir, Backend: tm, Shards: p.shards, DS: p.ds,
		Capacity: 1 << 12, LockTable: 1 << 14,
		SegmentBytes: s.segBytes, Policy: p.policy,
		GroupInterval: s.groupInterval,
		Rec:           torRec,
	}
	return s.body(rd)
}

// fail reports why the round failed.
func (rd *round) fail(format string, args ...any) bool {
	fmt.Printf("  %s round %d: %s\n", rd.scen.name, rd.round, fmt.Sprintf(format, args...))
	return false
}

// tempdir makes a directory that lives as long as the round ("" after
// reporting, if it cannot).
func (rd *round) tempdir() string {
	dir, err := os.MkdirTemp("", "stmtorture-"+rd.scen.name+"-*")
	if err != nil {
		rd.fail("tempdir: %v", err)
		return ""
	}
	rd.dirs = append(rd.dirs, dir)
	return dir
}

// spawn starts the round's workers, each with its own recorder and a seed
// derived from the round's.
func (rd *round) spawn(work func(w int, rec *histcheck.Recorder, seed uint64)) {
	for w := 0; w < rd.threads; w++ {
		rd.wg.Add(1)
		go func(w int) {
			defer rd.wg.Done()
			work(w, rd.hist.Recorder(w), rd.seed^uint64(w+1)*0xbf58476d1ce4e5b9)
		}(w)
	}
}

// load spawns in-process point-op workers over the log-backed map.
func (rd *round) load(l *wal.Log, m ds.Map) {
	rd.spawn(func(_ int, rec *histcheck.Recorder, seed uint64) { crashWorker(l, m, rec, &rd.stop, seed) })
}

// window is the traffic window: half, an online Checkpoint, half again. It
// reports whether the checkpoint was taken; what a refusal means is the
// scenario's to say.
func (rd *round) window(l *wal.Log, half time.Duration) bool {
	time.Sleep(half)
	_, err := l.Checkpoint()
	time.Sleep(half)
	return err == nil
}

// quiesce stops the workers and waits them out.
func (rd *round) quiesce() {
	rd.stop.Store(true)
	rd.wg.Wait()
}

// recoverState opens the log directory as a restarted process would and
// returns what recovery rebuilt, sorted.
func recoverState(opts wal.Options) ([]ds.KV, error) {
	m, l, err := wal.OpenWith(opts)
	if err != nil {
		return nil, err
	}
	state, _ := ds.ExportSorted(l.System(), m)
	l.Crash()
	l.Close()
	return state, nil
}

// auditPrefix appends one synthetic whole-window Search per key — claiming
// "at some point, key k held the recovered value" — and lets the partitioned
// checker decide whether all those claims linearize against the recorded
// history.
func (rd *round) auditPrefix(recovered []ds.KV) bool {
	if n := rd.hist.Dropped(); n != 0 {
		return rd.fail("harness bug: %d ops dropped", n)
	}
	ops := rd.hist.Ops()
	var maxTick uint64
	synthThread := 1
	for i := range ops {
		maxTick = max(maxTick, ops[i].Res)
		synthThread = max(synthThread, ops[i].Thread+1)
	}
	recVal := make(map[uint64]uint64, len(recovered))
	for _, kv := range recovered {
		if kv.Key < 1 || kv.Key > crashKeyRange {
			return rd.fail("recovered key %d outside the workload key range", kv.Key)
		}
		recVal[kv.Key] = kv.Val
	}
	for k := uint64(1); k <= crashKeyRange; k++ {
		op := histcheck.Op{
			Inv:    1, // concurrent with the entire history: may linearize anywhere
			Res:    maxTick + 1 + k,
			Kind:   histcheck.Search,
			Key:    k,
			Thread: synthThread,
		}
		if v, ok := recVal[k]; ok {
			op.ROK, op.RVal = true, v
		}
		ops = append(ops, op)
	}
	res := histcheck.CheckPartitioned(ops, 0)
	if !res.Ok && !res.LimitHit { // undecided passes, like the hist workload's budget trips
		return rd.fail("recovered state is not a prefix-consistent cut:\n  %s", res.Reason)
	}
	return true
}
