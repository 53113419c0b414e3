// Package registry is the one place that maps a name to a construction: TM
// backends ("multiverse", "tl2", ...), their sharded composition, and the
// data structures. The harness (internal/bench), the conformance matrix
// (internal/stmtest), the WAL, the replica and the torture binary all build
// through it, so the set of names — and what each name means — cannot drift
// between them.
package registry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dctl"
	"repro/internal/ds"
	"repro/internal/ds/abtree"
	"repro/internal/ds/avl"
	"repro/internal/ds/extbst"
	"repro/internal/ds/hashmap"
	"repro/internal/gclock"
	"repro/internal/mvstm"
	"repro/internal/norec"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/tinystm"
	"repro/internal/tl2"
)

// Params is what a construction site may vary about a TM instance. Fields a
// backend has no use for are ignored (NOrec has no lock table; only TL2,
// TinySTM and NOrec bound their attempts; TinySTM and NOrec cannot share a
// clock or be observed — see Durable).
type Params struct {
	// LockTable sizes the lock (and, for Multiverse, VLT/bloom) tables.
	LockTable int
	// MaxAttempts bounds retries for the TMs without a long-read escape
	// hatch; 0 means unbounded.
	MaxAttempts int
	// Clock, when non-nil, is the shared clock of a sharded system.
	Clock *gclock.Clock
	// OnCommit, when non-nil, observes the instance's commits.
	OnCommit stm.CommitObserver
	// ObsConfig wires the flight recorder and tags the instance.
	stm.ObsConfig
}

func mvConfig(p Params) mvstm.Config {
	return mvstm.Config{LockTableSize: p.LockTable, Clock: p.Clock, OnCommit: p.OnCommit, ObsConfig: p.ObsConfig}
}

// tms maps every TM name to its construction. The Multiverse variants:
// "-q"/"-u" pin the mode (paper Fig 8 ablations); "-nobloom" and
// "-nounversion" ablate those mechanisms; "-eager" drops the versioned-path
// and mode-switch thresholds to their minimum, so short torture rounds reach
// the versioned read path and Mode U machinery that the paper-default K
// values only reach under sustained load.
var tms = map[string]func(Params) stm.System{
	"multiverse":   func(p Params) stm.System { return mvstm.New(mvConfig(p)) },
	"multiverse-q": func(p Params) stm.System { return mvstm.NewPinned(mvConfig(p), mvstm.ModeQ) },
	"multiverse-u": func(p Params) stm.System { return mvstm.NewPinned(mvConfig(p), mvstm.ModeU) },
	"multiverse-eager": func(p Params) stm.System {
		c := mvConfig(p)
		c.K1, c.K2, c.K3, c.S = 1, 2, 2, 2
		return mvstm.New(c)
	},
	"multiverse-nobloom": func(p Params) stm.System {
		c := mvConfig(p)
		c.DisableBloom = true
		return mvstm.New(c)
	},
	"multiverse-nounversion": func(p Params) stm.System {
		c := mvConfig(p)
		c.DisableUnversioning = true
		return mvstm.New(c)
	},
	"dctl": func(p Params) stm.System {
		return dctl.New(dctl.Config{LockTableSize: p.LockTable, Clock: p.Clock, OnCommit: p.OnCommit, ObsConfig: p.ObsConfig})
	},
	"tl2": func(p Params) stm.System {
		return tl2.New(tl2.Config{LockTableSize: p.LockTable, MaxAttempts: p.MaxAttempts, Clock: p.Clock, OnCommit: p.OnCommit, ObsConfig: p.ObsConfig})
	},
	"tinystm": func(p Params) stm.System {
		return tinystm.New(tinystm.Config{LockTableSize: p.LockTable, MaxAttempts: p.MaxAttempts, ObsConfig: p.ObsConfig})
	},
	"norec": func(p Params) stm.System {
		return norec.New(norec.Config{MaxAttempts: p.MaxAttempts, ObsConfig: p.ObsConfig})
	},
}

// TMNames returns every registered TM name, sorted.
func TMNames() []string {
	names := make([]string, 0, len(tms))
	for n := range tms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupTM(name string) (func(Params) stm.System, error) {
	build, ok := tms[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown TM %q (want one of %s)", name, strings.Join(TMNames(), ", "))
	}
	return build, nil
}

// NewTM builds the named TM.
func NewTM(name string, p Params) (stm.System, error) {
	build, err := lookupTM(name)
	if err != nil {
		return nil, err
	}
	return build(p), nil
}

// ShardBackend returns the shard.Backend that builds the named TM once per
// shard: every instance commits against the system's shared clock, is tagged
// with its shard index, and — when observe is non-nil — reports its commits
// to observe(shard).
func ShardBackend(name string, p Params, observe func(shard int) stm.CommitObserver) (shard.Backend, error) {
	build, err := lookupTM(name)
	if err != nil {
		return nil, err
	}
	return func(i int, clock *gclock.Clock) stm.System {
		q := p
		q.Clock, q.ObsID = clock, i
		if observe != nil {
			q.OnCommit = observe(i)
		}
		return build(q)
	}, nil
}

// Durable reports whether the named TM can sit under the WAL, the server and
// a replica. It is observed from a built instance, not declared: the TM's
// threads must serve pinned snapshot reads (stm.SnapshotThread — checkpoints
// and cross-shard queries) and its commits must reach a CommitObserver
// handed to the constructor.
func Durable(name string) bool {
	var seen commitProbe
	sys, err := NewTM(name, Params{LockTable: 64, OnCommit: &seen})
	if err != nil {
		return false
	}
	defer sys.Close()
	th := sys.Register()
	defer th.Unregister()
	var w stm.Word
	th.Atomic(func(tx stm.Txn) {
		tx.Write(&w, 1)
		stm.LogRedo(tx, stm.RedoRec{Op: stm.RedoInsert, Key: 1, Val: 1})
	})
	_, snapshots := th.(stm.SnapshotThread)
	return snapshots && bool(seen)
}

type commitProbe bool

func (c *commitProbe) ObserveCommit(uint64, uint64, []stm.RedoRec) { *c = true }

// dss maps every data-structure name to its construction from a key-capacity
// hint. The hashmap follows the paper: buckets fixed independently of the
// prefill (scaled to 10× the capacity hint, as 1M buckets vs 100k keys).
var dss = map[string]func(capacity int) ds.Map{
	"abtree":  func(c int) ds.Map { return abtree.New(c) },
	"avl":     func(c int) ds.Map { return avl.New(c) },
	"extbst":  func(c int) ds.Map { return extbst.New(c) },
	"hashmap": func(c int) ds.Map { return hashmap.New(10*c, c) },
}

// NewDS builds the named data structure with a key-capacity hint.
func NewDS(name string, capacity int) (ds.Map, error) {
	build, ok := dss[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown data structure %q", name)
	}
	return build(capacity), nil
}
