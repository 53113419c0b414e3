package tl2

import (
	"runtime"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/avl"
	"repro/internal/ds/extbst"
	"repro/internal/histcheck"
)

// TestGV4ShortcutNeedsOwnTick is the regression for the unsound GV4 commit
// shortcut: "wv == rv+1, so nothing committed since rv — skip read-set
// validation" holds only for the committer whose own CAS advanced the clock.
// A pass-on-failure committer shares wv with the winner, who committed
// concurrently, and must validate; without that TL2 produced
// non-linearizable histories (a delete reporting false for a key a
// concurrent insert had made present), about one run in fifteen of the
// TestHistoryLinearizable tl2/avl and tl2/extbst cells on two cores.
//
// The window needs two committers truly in parallel, so the test hammers
// those two cells with fresh seeds and is skipped on a single processor.
func TestGV4ShortcutNeedsOwnTick(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2: the race is between two parallel committers")
	}
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	cells := []struct {
		name    string
		profile string
		new     func() ds.Map
	}{
		{"avl", "points", func() ds.Map { return avl.New(4096) }},
		{"extbst", "mixed", func() ds.Map { return extbst.New(4096) }},
	}
	for _, c := range cells {
		p, ok := histcheck.ProfileByName(c.profile)
		if !ok {
			t.Fatalf("profile %q missing", c.profile)
		}
		for r := 0; r < rounds; r++ {
			seed := uint64(r*7919 + 17)
			sys := New(Config{LockTableSize: 1 << 10})
			h := histcheck.RunHistory(sys, c.new(), p, 3, 4000, seed)
			sys.Close()
			res := histcheck.CheckPartitioned(h.Ops(), 0)
			if res.LimitHit {
				t.Fatalf("%s round %d: checker inconclusive: %s", c.name, r, res.Reason)
			}
			if !res.Ok {
				t.Fatalf("%s round %d (seed %d): non-linearizable history: %s", c.name, r, seed, res.Reason)
			}
		}
	}
}
