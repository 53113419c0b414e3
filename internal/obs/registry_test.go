package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	if r.Hist("h") != r.Hist("h") {
		t.Fatal("Hist lookup not idempotent")
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Hist("server.lat.insert").Record(250 * time.Microsecond)
	r.Func(func(emit func(string, uint64)) {
		emit("server.requests", 7)
		emit("shard.0.commits", 41)
		emit("shard.1.commits", 42)
	})
	r.Text(func(emit func(string, string)) { emit("wal.health", "healthy") })

	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot did not round-trip: %v\n%s", err, b)
	}
	if snap.Version != SnapshotVersion {
		t.Fatalf("version = %d, want %d", snap.Version, SnapshotVersion)
	}
	for name, want := range map[string]uint64{
		"server.requests": 7,
		"shard.0.commits": 41,
		"shard.1.commits": 42,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %q = %d, want %d", name, got, want)
		}
	}
	if snap.Text["wal.health"] != "healthy" {
		t.Errorf("text wal.health = %q", snap.Text["wal.health"])
	}
	hs, ok := snap.Hists["server.lat.insert"]
	if !ok || hs.Count != 1 || hs.P99 == 0 {
		t.Errorf("hist snapshot = %+v (ok=%v)", hs, ok)
	}
}

// Collector funcs registered later win on name collisions; this is what
// lets wal and server both emit shard.* over one registry.
func TestRegistryLastEmissionWins(t *testing.T) {
	r := NewRegistry()
	r.Func(func(emit func(string, uint64)) { emit("dup", 1) })
	r.Func(func(emit func(string, uint64)) { emit("dup", 2) })
	if got := r.Snapshot().Counters["dup"]; got != 2 {
		t.Fatalf("dup = %d, want 2 (last emission wins)", got)
	}
}

func TestRecorderBasicAndWrap(t *testing.T) {
	rec := NewRecorder(16)
	for i := 0; i < 40; i++ {
		rec.Record(EvAbort, uint64(i), uint64(ReasonLockBusy), 1)
	}
	evs := rec.Events()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d events, want 16", len(evs))
	}
	// Oldest surviving event is #25 (40 recorded, ring of 16).
	if evs[0].Seq != 25 || evs[len(evs)-1].Seq != 40 {
		t.Fatalf("seq range [%d, %d], want [25, 40]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("events not in order: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	if rec.Len() != 40 {
		t.Fatalf("Len = %d, want 40", rec.Len())
	}
	if rec.CountKind(EvAbort) != 16 {
		t.Fatalf("CountKind(EvAbort) = %d, want 16", rec.CountKind(EvAbort))
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Record(EvWalSevered, 0, 0, 0) // must not panic
	if rec.Events() != nil || rec.Len() != 0 {
		t.Fatal("nil recorder should report no events")
	}
	var sb strings.Builder
	rec.Dump(&sb)
	if !strings.Contains(sb.String(), "no flight recorder") {
		t.Fatalf("nil Dump output: %q", sb.String())
	}
}

func TestRecorderConcurrentDump(t *testing.T) {
	rec := NewRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec.Record(EvAbort, uint64(w), uint64(ReasonValidation), uint64(i))
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, ev := range rec.Events() {
			// Any event that survives the torn-slot check must decode to
			// exactly what some writer stored.
			if ev.Kind != EvAbort || ev.A > 3 || AbortReason(ev.B) != ReasonValidation {
				t.Errorf("torn event leaked: %+v", ev)
			}
		}
	}
	close(stop)
	wg.Wait()
	var sb strings.Builder
	rec.Dump(&sb)
	if !strings.Contains(sb.String(), "flight recorder") || !strings.Contains(sb.String(), "reason=validation") {
		t.Fatalf("dump output missing expected lines:\n%s", sb.String())
	}
}

func TestEventFormat(t *testing.T) {
	ev := Event{Seq: 3, Kind: EvWalHealed, A: 1, B: uint64(50 * time.Millisecond)}
	s := ev.Format()
	if !strings.Contains(s, "wal-healed") || !strings.Contains(s, "shard=1") || !strings.Contains(s, "50ms") {
		t.Fatalf("Format = %q", s)
	}
	if !strings.Contains((Event{Kind: EvModeSwitch, B: 2}).Format(), "mode=U") {
		t.Fatalf("mode switch format: %q", (Event{Kind: EvModeSwitch, B: 2}).Format())
	}
}
