package stmtest

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/stm"
)

// released is a recording ebr.Releaser: the slots released, in order.
type released []uint64

func (r *released) Release(_ int, idx uint64) { *r = append(*r, idx) }

// TestDriverContract pins what stm.Drive promises identically for every
// backend: the accounting, spans and events around a transaction's attempts.
// A deterministic conflict is forced by having a second thread commit a
// write to the word between the victim's two accesses of it, on the victim's
// own goroutine — every TM here must abort that attempt, and for a classified
// reason. (The deferred-clock TMs add aborts of their own: a writer that
// follows a commit or rollback at the same clock value conflicts with it
// once. The test counts body runs instead of assuming how many.)
func TestDriverContract(t *testing.T) {
	for _, f := range All() {
		t.Run(f.Name, func(t *testing.T) {
			rec := obs.NewRecorder(256)
			tracer := obs.NewTracer(256, 1, nil)
			sys := f.NewWith(registry.Params{ObsConfig: stm.ObsConfig{Obs: rec, ObsID: 7}})
			defer sys.Close()
			victim, other := sys.Register(), sys.Register()
			defer victim.Unregister()
			defer other.Unregister()
			const traceID = 42
			stm.SetTrace(victim, tracer, traceID)

			// runs logs which victim transaction each body run belonged to;
			// otherRuns counts the untraced thread's.
			var runs []int
			otherRuns := 0

			const conflicts = 3
			var w stm.Word
			ok := victim.Atomic(func(tx stm.Txn) {
				runs = append(runs, 0)
				tx.Read(&w)
				if len(runs) <= conflicts {
					other.Atomic(func(o stm.Txn) { otherRuns++; o.Write(&w, o.Read(&w)+1) })
				}
				tx.Write(&w, tx.Read(&w)+100)
			})
			if !ok || w.Load() != conflicts+100 || len(runs) != conflicts+1 {
				t.Fatalf("victim ok=%v w=%d after %d runs; want true %d %d", ok, w.Load(), len(runs), conflicts+100, conflicts+1)
			}

			// A cancelled transaction: hooks newest-first, no effect, no
			// lock left behind.
			var order released
			ok = victim.Atomic(func(tx stm.Txn) {
				runs = append(runs, 1)
				order = order[:0]
				tx.OnAbort(&order, 0, 1)
				tx.OnAbort(&order, 0, 2)
				tx.OnCommit(func() { t.Error("OnCommit hook ran for a cancelled transaction") })
				tx.Write(&w, 9)
				tx.Cancel()
			})
			if ok || !reflect.DeepEqual(order, released{2, 1}) || w.Load() != conflicts+100 {
				t.Fatalf("cancel: ok=%v hooks=%v w=%d want false [2 1] %d", ok, order, w.Load(), conflicts+100)
			}
			if !other.Atomic(func(o stm.Txn) { otherRuns++; o.Write(&w, 0) }) {
				t.Fatal("transaction after a cancel did not commit")
			}
			const cancelled, otherCommits = 1, conflicts + 1

			st := sys.Stats()
			var reasons uint64
			for _, n := range st.AbortReasons {
				reasons += n
			}
			if st.Aborts < conflicts || reasons != st.Aborts || st.AbortReasons[obs.ReasonUnknown] != 0 {
				t.Errorf("aborts=%d by reason %v: want >= %d, all classified", st.Aborts, st.AbortReasons, conflicts)
			}
			if st.Commits != otherCommits+1 || st.Commits+st.Aborts+cancelled != uint64(len(runs)+otherRuns) {
				t.Errorf("commits=%d aborts=%d cancelled=%d, bodies ran %d times", st.Commits, st.Aborts, cancelled, len(runs)+otherRuns)
			}
			if st.Starved != 0 {
				t.Errorf("starved=%d with no bound hit", st.Starved)
			}

			// One attempt span per victim body run, numbered per
			// transaction; reason 0 on the committed attempt only.
			var spans []obs.Span
			for _, sp := range tracer.Spans() {
				if sp.Stage == obs.StageAttempt {
					spans = append(spans, sp)
				}
			}
			if len(spans) != len(runs) {
				t.Fatalf("%d attempt spans for %d body runs", len(spans), len(runs))
			}
			events := rec.Events()
			attempt := 0
			for i, sp := range spans {
				attempt++
				if i > 0 && runs[i] != runs[i-1] {
					attempt = 1
				}
				committed := i == conflicts
				if sp.Trace != traceID || sp.Src != 7 || sp.A != uint64(attempt) || (sp.B == 0) != committed {
					t.Errorf("span %d = %+v: want trace %d src 7 attempt %d committed=%v", i, sp, traceID, attempt, committed)
				}
				if last := i == len(spans)-1; committed || last {
					continue // the commit and the cancel are not aborts
				}
				// Every aborted attempt also left one abort event.
				found := false
				for j, ev := range events {
					if ev.Kind == obs.EvAbort && ev.A == 7 && ev.B+1 == sp.B && ev.C == sp.A {
						events[j].Kind, found = 0, true
						break
					}
				}
				if !found {
					t.Errorf("aborted span %d = %+v has no abort event", i, sp)
				}
			}
			var abortEvents uint64
			for _, ev := range rec.Events() {
				if ev.Kind == obs.EvAbort {
					abortEvents++
				}
			}
			if abortEvents != st.Aborts {
				t.Errorf("%d abort events for %d aborts", abortEvents, st.Aborts)
			}
		})
	}
}

// TestDriverStarvation: Starved counts exactly the transactions that hit
// their attempt bound — MaxAttempts where the backend has one, and every
// SnapshotAt. The body forces each attempt to abort.
func TestDriverStarvation(t *testing.T) {
	bounded := map[string]bool{"tl2": true, "norec": true, "tinystm": true}
	for _, f := range All() {
		t.Run(f.Name, func(t *testing.T) {
			const bound = 5
			sys := f.NewWith(registry.Params{MaxAttempts: bound})
			defer sys.Close()
			th := sys.Register()
			defer th.Unregister()
			var want stm.Stats
			check := func(what string, ok bool, attempts int) {
				t.Helper()
				want.Starved++
				want.Aborts += uint64(attempts)
				st := sys.Stats()
				if ok || st.Starved != want.Starved || st.Aborts != want.Aborts || st.Commits != 0 {
					t.Fatalf("%s: ok=%v after %d attempts, starved=%d aborts=%d commits=%d; want false, %d, %d, 0",
						what, ok, attempts, st.Starved, st.Aborts, st.Commits, want.Starved, want.Aborts)
				}
			}
			if bounded[f.Name] {
				for _, run := range []func(func(stm.Txn)) bool{th.Atomic, th.ReadOnly} {
					attempts := 0
					ok := run(func(stm.Txn) { attempts++; stm.AbortAttempt() })
					if attempts != bound {
						t.Fatalf("body ran %d times, MaxAttempts=%d", attempts, bound)
					}
					check("MaxAttempts", ok, attempts)
				}
			}
			if snap, isSnap := th.(stm.SnapshotThread); isSnap {
				attempts := 0
				ok := snap.SnapshotAt(2, func(stm.Txn) { attempts++; stm.AbortAttempt() })
				if attempts < 2 || attempts > 8 {
					t.Fatalf("SnapshotAt made %d attempts; want a small bound", attempts)
				}
				check("SnapshotAt", ok, attempts)
			} else if !bounded[f.Name] {
				t.Fatal("backend has neither MaxAttempts nor SnapshotAt: nothing bounds it")
			}
		})
	}
}

// TestRegisterCycles: thread registration never runs out or hangs, and the
// lock-owner ids it hands out always fit vlock's 14-bit field (tinystm's own
// allocator used to spin forever at the 16 384th Register).
func TestRegisterCycles(t *testing.T) {
	for _, f := range All() {
		t.Run(f.Name, func(t *testing.T) {
			sys := f.New()
			defer sys.Close()
			for i := 0; i < 20000; i++ {
				th := sys.Register()
				tid := reflect.ValueOf(th).Elem().FieldByName("TID").Int()
				th.Unregister()
				if tid < 1 || tid > 1<<14-1 {
					t.Fatalf("registration %d got owner id %d, outside 1..16383", i, tid)
				}
			}
		})
	}
}
