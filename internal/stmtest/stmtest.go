// Package stmtest provides the shared correctness harness run against every
// TM implementation: serial semantics, concurrent invariants (bank
// transfers, snapshot consistency), opacity probes, and progress checks.
package stmtest

import (
	"repro/internal/registry"
	"repro/internal/stm"
)

// SmallTables is the lock-table size used in tests: small enough to force
// lock-table collisions, which exercise the subtle paths (Mode U read state
// machine, collision aborts).
const SmallTables = 1 << 10

// Factory builds fresh instances of one TM of the test matrix.
type Factory struct {
	Name string // matrix name (test and corpus ids)
	TM   string // internal/registry name
}

// New builds an instance at SmallTables.
func (f Factory) New() stm.System { return f.NewWith(registry.Params{}) }

// NewWith is New with the rest of p (bounds, flight recorder) applied.
func (f Factory) NewWith(p registry.Params) stm.System {
	p.LockTable = SmallTables
	sys, err := registry.NewTM(f.TM, p)
	if err != nil {
		panic(err)
	}
	return sys
}

// All returns factories for every TM in the repository. The
// "multiverse-eager" variant drops the versioned-path and mode-switch
// thresholds to their minimum so short tests exercise the versioned read
// path and Mode U machinery, which the paper-default K values would only
// reach under sustained contention.
func All() []Factory {
	return []Factory{
		{"multiverse", "multiverse"},
		{"multiverse-eager", "multiverse-eager"},
		{"multiverse-pinQ", "multiverse-q"},
		{"multiverse-pinU", "multiverse-u"},
		{"tl2", "tl2"},
		{"dctl", "dctl"},
		{"norec", "norec"},
		{"tinystm", "tinystm"},
	}
}
