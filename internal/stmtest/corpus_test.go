package stmtest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/histcheck"
	"repro/internal/registry"
)

// seedCorpusDir is the adaptive seed corpus written by `stmtorture
// -workload hist` on failing rounds (see testdata/seeds/README.md),
// relative to this package.
const seedCorpusDir = "../../testdata/seeds"

// CorpusEntry is one promoted fuzzer finding: a hist-torture configuration
// replayed as a fixed regression on every run.
type CorpusEntry struct {
	TM      string `json:"tm"`
	DS      string `json:"ds"`
	Profile string `json:"profile"`
	Threads int    `json:"threads"`
	Ops     int    `json:"ops"`
	Seed    uint64 `json:"seed"`
	Note    string `json:"note"`
}

// TestSeedCorpus replays every corpus entry and requires the recorded
// history to be linearizable under the partitioned checker: a red entry
// means a bug the fuzzer once caught has regressed. Unknown TM/DS/profile
// names fail loudly so renames cannot silently orphan entries.
func TestSeedCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(seedCorpusDir, "*.json"))
	if err != nil {
		t.Fatalf("globbing corpus: %v", err)
	}
	if len(files) == 0 {
		t.Fatalf("empty seed corpus in %s: the adaptive matrix must always have its founding entries", seedCorpusDir)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading corpus entry: %v", err)
			}
			var e CorpusEntry
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("malformed corpus entry: %v", err)
			}
			if e.TM == "" || e.DS == "" || e.Profile == "" || e.Threads < 1 || e.Ops < 1 {
				t.Fatalf("corpus entry missing required fields: %+v", e)
			}
			p, ok := histcheck.ProfileByName(e.Profile)
			if !ok {
				t.Fatalf("corpus entry names unknown profile %q", e.Profile)
			}
			ops := e.Ops
			if raceEnabled && ops > 300 {
				ops = 300
			}
			// The structure geometry must match the round stmtorture ran
			// (histRound's formula, including its soak clamp): the fault
			// self-tests show bucket-array sizing changes how often bugs
			// fire by orders of magnitude, so replays are built from the
			// entry's full op budget even when the race build caps the
			// replayed ops.
			capacity := 4 * e.Threads * e.Ops
			if capacity > 1<<16 {
				capacity = 1 << 16
			}
			// 1<<16 lock table matches stmtorture's histRound too — the
			// conflict/abort geometry is part of what made the seed fire.
			sys, err := registry.NewTM(e.TM, registry.Params{LockTable: 1 << 16, MaxAttempts: 20000})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			m, err := registry.NewDS(e.DS, capacity)
			if err != nil {
				t.Fatal(err)
			}
			h := histcheck.RunHistory(sys, m, p, e.Threads, ops, e.Seed)
			if h.Dropped() != 0 {
				t.Fatalf("recorder dropped %d ops", h.Dropped())
			}
			res := histcheck.CheckPartitioned(h.Ops(), 0)
			if res.LimitHit {
				t.Fatalf("corpus replay inconclusive: %s", res.Reason)
			}
			if !res.Ok {
				t.Fatalf("corpus seed regressed (tm=%s ds=%s profile=%s threads=%d ops=%d seed=%d): %s",
					e.TM, e.DS, e.Profile, e.Threads, ops, e.Seed, res.Reason)
			}
		})
	}
}
