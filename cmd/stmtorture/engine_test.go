package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ds"
	"repro/internal/histcheck"
	"repro/internal/wal"
)

// sched is a round's parameters with the site and mode reduced to names.
type sched struct {
	site, mode string
	dmode      wal.DegradedMode
	policy     wal.SyncPolicy
	shards     int
	ds         string
	seed       uint64
}

// TestScheduleEquality pins the round → parameters mapping of every
// scenario table to the expressions the four hand-written loops used before
// the engine replaced them (the replica site axis grew from 5 to 6 rows with
// tail-read, the socket one from 7 to 8 with slow-loris; nothing else moved).
// A reproducer printed by an older binary must still reach the same round.
func TestScheduleEquality(t *testing.T) {
	const base = 41
	policies := []wal.SyncPolicy{wal.SyncGroup, wal.SyncEveryCommit, wal.SyncNone}
	dmodes := []wal.DegradedMode{wal.DegradeStall, wal.DegradeReject}
	dss := []string{"hashmap", "abtree"}
	for _, c := range []struct {
		s     *scenario
		sites int
	}{{&crashScenario, 0}, {&faultdiskScenario, 10}, {&socketScenario, 8}, {&replicaScenario, 6}} {
		if len(c.s.sites) != c.sites {
			t.Fatalf("%s has %d sites, want %d", c.s.name, len(c.s.sites), c.sites)
		}
	}
	for r := 0; r < 180; r++ {
		seed := base + uint64(r)*0x9e3779b97f4a7c15
		want := map[*scenario]sched{
			&crashScenario: {
				mode:   []string{"synced", "hard", "torn"}[r%3],
				shards: []int{1, 2, 4}[(r/3)%3], policy: policies[(r/9)%3], ds: dss[(r/2)%2],
			},
			&faultdiskScenario: {
				site: faultdiskScenario.sites[r%10].name, mode: []string{"healed", "hard"}[(r/10)%2],
				dmode: dmodes[(r/2)%2], policy: policies[(r/3)%3],
				shards: []int{1, 2}[(r/5)%2], ds: dss[(r/7)%2],
			},
			&socketScenario: {
				site: socketScenario.sites[r%8].name, policy: policies[(r/2)%3],
				shards: []int{1, 2}[(r/3)%2], ds: dss[(r/5)%2],
			},
			&replicaScenario: {
				site: replicaScenario.sites[r%6].name, mode: []string{"drained", "sever"}[(r/2)%2],
				policy: wal.SyncGroup, shards: []int{1, 2}[(r/3)%2], ds: dss[(r/5)%2],
			},
		}
		for s, w := range want {
			w.seed = seed
			p := s.params(base, r)
			got := sched{p.site.name, p.mode.name, p.dmode, p.policy, p.shards, p.ds, p.seed}
			if got != w || p.round != r {
				t.Fatalf("%s round %d: engine derives %+v, the parent loop ran %+v", s.name, r, got, w)
			}
		}
	}
}

// TestOneRoundPerMode runs real rounds — every audit mode of every scenario,
// plus the replica's tail-read site in a drained round and the socket's
// slow-loris site — end to end.
func TestOneRoundPerMode(t *testing.T) {
	for _, c := range []struct {
		s      *scenario
		rounds []int
	}{
		{&crashScenario, []int{0, 1, 2}},
		{&faultdiskScenario, []int{0, 10}},
		{&socketScenario, []int{1, 7}},
		{&replicaScenario, []int{0, 2, 5}},
	} {
		modes := map[string]bool{}
		for _, r := range c.rounds {
			p := c.s.params(1, r)
			modes[p.mode.name] = true
			counts := map[string]int{}
			if !c.s.run("multiverse", 2, p, counts) {
				t.Errorf("%s %s failed (counters %v)", c.s.name, p, counts)
			}
		}
		if len(modes) < len(c.s.modes) {
			t.Errorf("%s: rounds %v reach modes %v of %v", c.s.name, c.rounds, modes, c.s.modes)
		}
	}
	if p := socketScenario.params(1, 7); p.site.name != "slow-loris" {
		t.Errorf("socket round 7 is %s, want the slow-loris site", p)
	}
	if p := replicaScenario.params(1, 5); p.site.name != "tail-read" || p.mode.name != "drained" || p.shards != 2 {
		t.Errorf("replica round 5 is %s, want the tail-read site, drained, on two shards", p)
	}
}

// TestAuditPrefix: the recovered-state audit accepts the true final state
// and an earlier cut of a recorded history (per key, any value the key held
// is a legal cut — the audit is per stream), and rejects a value nobody
// wrote, a deleted key back under a value it never held, and a key the
// workload never touches.
func TestAuditPrefix(t *testing.T) {
	rd := &round{scen: &crashScenario, hist: histcheck.NewHistory(1, 16)}
	rec := rd.hist.Recorder(0)
	rec.Return(rec.Invoke(histcheck.Insert, 1, 10), true, 0, 0, 0)
	rec.Return(rec.Invoke(histcheck.Insert, 2, 20), true, 0, 0, 0)
	rec.Return(rec.Invoke(histcheck.Delete, 2, 0), true, 0, 0, 0)
	rec.Return(rec.Invoke(histcheck.Insert, 2, 21), true, 0, 0, 0)
	rec.Return(rec.Invoke(histcheck.Insert, 3, 30), true, 0, 0, 0)
	rec.Return(rec.Invoke(histcheck.Insert, 3, 31), false, 0, 0, 0) // duplicate: 31 is never stored
	rec.Return(rec.Invoke(histcheck.Delete, 3, 0), true, 0, 0, 0)
	for _, c := range []struct {
		name      string
		recovered []ds.KV
		ok        bool
	}{
		{"final state", []ds.KV{{Key: 1, Val: 10}, {Key: 2, Val: 21}}, true},
		{"earlier cut", []ds.KV{{Key: 1, Val: 10}, {Key: 2, Val: 20}, {Key: 3, Val: 30}}, true},
		{"invented value", []ds.KV{{Key: 1, Val: 11}, {Key: 2, Val: 21}}, false},
		{"resurrected deleted key", []ds.KV{{Key: 1, Val: 10}, {Key: 2, Val: 21}, {Key: 3, Val: 31}}, false},
		{"key outside the range", []ds.KV{{Key: 1, Val: 10}, {Key: 2, Val: 21}, {Key: crashKeyRange + 1, Val: 1}}, false},
	} {
		if got := rd.auditPrefix(c.recovered); got != c.ok {
			t.Errorf("%s: audit says %v, want %v", c.name, got, c.ok)
		}
	}
}

// TestHistReportStable: the failure report of a non-linearizable history
// names the failing key and fragment, and checking the same history twice
// prints the same bytes.
func TestHistReportStable(t *testing.T) {
	hist := []histcheck.Op{
		{Inv: 1, Res: 2, Kind: histcheck.Insert, Key: 7, Val: 70, ROK: true, Thread: 0},
		{Inv: 3, Res: 4, Kind: histcheck.Insert, Key: 5, Val: 50, ROK: true, Thread: 1},
		{Inv: 5, Res: 6, Kind: histcheck.Search, Key: 7, RVal: 70, ROK: true, Thread: 0},
		{Inv: 7, Res: 8, Kind: histcheck.Search, Key: 5, RVal: 51, ROK: true, Thread: 1}, // nobody wrote 51
		{Inv: 9, Res: 10, Kind: histcheck.Size, RCount: 2, Thread: 0},
	}
	var a, b bytes.Buffer
	histReport(&a, hist, 99, 0)
	histReport(&b, hist, 99, 0)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("report is not byte-stable:\n%s\n---\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		"2 keys, 1 cross-key ops (seed 99)",
		"key 5 projection (2 ops, 2 fragments, seed 99): VIOLATION",
		"key 7 projection (2 ops, 2 fragments, seed 99): ok",
		"fragment 1/2 ticks [3,4] (1 ops): ok",
		"fragment 2/2 ticks [7,8] (1 ops): VIOLATION",
		"T0 size()=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	var only bytes.Buffer
	histReport(&only, hist, 99, 7)
	if s := only.String(); strings.Contains(s, "(5,") || !strings.Contains(s, "insert(7,70)") {
		t.Errorf("-key 7 report should keep key 7's ops and drop key 5's:\n%s", s)
	}
}
