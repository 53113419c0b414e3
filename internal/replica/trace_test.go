package replica

import (
	"net"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/wal"
)

// TestChannelTraceClockAndApplySpans pins the cross-process half of the
// tracing pipeline: a trace id stamped on the leader rides the redo record
// header through the WAL, the ship channel, and the follower's apply loop,
// where it surfaces as a replica-apply span shifted into the leader's
// timebase by the channel's clock-offset estimate.
func TestChannelTraceClockAndApplySpans(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	ltr := obs.NewTracer(1<<10, 1, nil)
	m, l := mustLeader(t, leaderOpts(leaderDir, "multiverse", 2, func(o *wal.Options) { o.Trace = ltr }))
	defer l.Close()

	th := l.System().Register()
	ids := make([]uint64, 0, 20)
	for i := uint64(1); i <= 20; i++ {
		id := ltr.SampleID()
		stm.SetTrace(th, ltr, id)
		if ins, ok := ds.Insert(th, m, i, i*3); !ok || !ins {
			t.Fatalf("insert %d failed", i)
		}
		ids = append(ids, id)
	}
	stm.SetTrace(th, nil, 0)
	th.Unregister()
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// The leader side must already carry STM and WAL spans for those ids.
	leaderStages := map[obs.Stage]int{}
	for _, sp := range ltr.Spans() {
		leaderStages[sp.Stage]++
	}
	for _, st := range []obs.Stage{obs.StageAttempt, obs.StageWalAppend, obs.StageWalCoalesce, obs.StageWalFsync} {
		if leaderStages[st] == 0 {
			t.Errorf("leader recorded no %v spans", st)
		}
	}

	// The follower runs its own feed: the clock-offset estimate travels from
	// the feed's Receiver sessions to the applier inside the Replica.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	svc := ServeShipping(ln, leaderDir, ShipperOptions{Interval: 200 * time.Microsecond})
	defer svc.Close()

	ftr := obs.NewTracer(1<<10, 1, nil)
	r, err := Open(Options{Dir: followerDir, Leader: svc.Addr().String(), Trace: ftr})
	if err != nil {
		t.Fatalf("Open follower: %v", err)
	}
	defer r.Close()
	awaitEqual(t, r, l, m, 10*time.Second)

	// The shipper sends a clock frame right after hello, so by convergence
	// the follower must hold an estimate. Same process, so the true offset
	// is ~0 and the min-estimate is a one-way latency: positive, tiny.
	off := r.clockOff.Load()
	if off <= 0 || off > int64(time.Second) {
		t.Fatalf("clock-offset estimate %dns, want small positive (same machine)", off)
	}

	applied := map[uint64]bool{}
	for _, sp := range ftr.Spans() {
		if sp.Stage != obs.StageReplicaApply {
			t.Fatalf("follower recorded unexpected stage %v", sp.Stage)
		}
		if sp.DurNs < 0 || sp.A == 0 {
			t.Fatalf("apply span malformed: %+v", sp)
		}
		applied[sp.Trace] = true
	}
	for _, id := range ids {
		if !applied[id] {
			t.Errorf("trace %d never produced a replica-apply span", id)
		}
	}
}
