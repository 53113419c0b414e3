// Command stmserve serves a sharded transactional map over TCP using the
// internal/server wire protocol, in one of two roles.
//
// Leader (the default): the map is WAL-backed and takes updates.
//
//	stmserve -addr 127.0.0.1:7707 -dir /var/lib/stm -tm multiverse -shards 4
//
// Updates ack on the wire only after the fsync covering their commit
// (-ack sync, the default); -ack commit acks at the commit point instead,
// the latency baseline that prices durability. -ship exposes the log
// directory to followers.
//
// Follower: a log-shipping read replica of a leader.
//
//	stmserve -follow 127.0.0.1:7708 -dir /var/lib/stm-replica -addr 127.0.0.1:7709
//
// -follow dials a leader's -ship listener and mirrors its WAL directory into
// -dir (redialing when a session dies); -tail instead follows -dir directly
// (shared-disk mode: the leader's own WAL directory over a shared
// filesystem). Either way the log is replayed into the follower's own
// transactional system, reads run pinned at the applied frozen timestamp —
// a scan never observes a torn transaction — and every update is refused
// with a read-only status. A role's flags are an error in the other role:
// -policy, -ack and -ship belong to a leader, -promote-on-exit to a
// follower.
//
// SIGINT/SIGTERM triggers a graceful drain: stop accepting, finish and
// answer every in-flight request, then — leader — flush the final group
// commit and close the log, or — follower — stop the feed and the applier;
// with -promote-on-exit the follower then promotes (wal recovery over the
// mirrored copy, proving it a valid leader image) and closes. Exit 0. The
// lines
//
//	stmserve following on <dir>      (follower only)
//	stmserve listening on <addr>
//
// on stdout mark readiness (the smoke tests and torture harness parse them).
//
// # Observability
//
// -obs <addr> serves the process metrics registry over HTTP: /debug/obs is
// the JSON snapshot (the same bytes the wire OpStats op returns),
// /debug/obs/events dumps the flight-recorder ring, /debug/pprof/* is the
// standard profiler surface. -stats-every emits a periodic one-line stats
// summary on stdout (a follower's ends in its health, with the error behind
// a "lagging" — an unreachable leader, say — in parentheses). SIGQUIT dumps the flight recorder to stderr and keeps
// serving — the kill -QUIT idiom for a wedged-looking process. -trace-every
// samples requests on a leader; a follower given it also records a
// replica-apply span for every record the leader sampled.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ds"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7707", "listen address (port 0 = pick a free port)")
	dir := flag.String("dir", "", "WAL directory; a follower's local mirror, or with -tail the leader's own (required)")
	tm := flag.String("tm", "multiverse", "TM backend (multiverse, multiverse-eager, tl2, dctl)")
	shards := flag.Int("shards", 0, "TM instances (0 = 2 log streams as leader; as follower, the count -dir holds)")
	dsName := flag.String("ds", "hashmap", "data structure (hashmap, abtree, avl, extbst)")
	policy := flag.String("policy", "group", "leader: fsync policy: group, none, every")
	workers := flag.Int("workers", 4, "execution pool size (registered TM threads)")
	ack := flag.String("ack", "sync", "leader: update ack policy: sync (after covering fsync) or commit")
	drain := flag.Duration("drain", 10*time.Second, "graceful-drain bound on shutdown")
	ship := flag.String("ship", "", "leader: log-shipping listen address for followers (empty = no shipping)")
	follow := flag.String("follow", "", "follower: the leader's -ship address to mirror into -dir")
	tail := flag.Bool("tail", false, "follower: follow -dir directly (the leader's own directory, shared disk)")
	promote := flag.Bool("promote-on-exit", false, "follower: promote the copy to a leader log on shutdown")
	obsAddr := flag.String("obs", "", "HTTP observability listen address: /debug/obs JSON, /debug/obs/events, /debug/pprof (empty = off)")
	statsEvery := flag.Duration("stats-every", 0, "emit a periodic stats log line at this interval (0 = off)")
	ringSize := flag.Int("obs-ring", obs.DefaultRingSize, "flight-recorder ring capacity (events)")
	traceEvery := flag.Int("trace-every", 0, "sample every Nth request for end-to-end tracing (0 = off)")
	traceRing := flag.Int("trace-ring", obs.DefaultRingSize, "trace span ring capacity")
	flag.Parse()
	// Exit 2 is a usage error, 1 a failure to start or to stop cleanly.
	die := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "stmserve: "+format+"\n", args...)
		os.Exit(code)
	}

	following := *follow != "" || *tail
	if *dir == "" {
		die(2, "-dir is required")
	}
	if *follow != "" && *tail {
		die(2, "-follow and -tail are two ways to feed one follower; give one")
	}
	// A flag only the other role reads is a usage error, not something to
	// ignore silently.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "policy", "ack", "ship":
			if following {
				die(2, "-%s is a leader's flag; -follow/-tail make this a follower", f.Name)
			}
		case "promote-on-exit":
			if !following {
				die(2, "-%s is a follower's flag (-follow or -tail)", f.Name)
			}
		}
	})
	pol, ok := wal.PolicyByName(*policy)
	if !ok {
		die(2, "unknown -policy %q", *policy)
	}
	ackPol, ok := server.AckByName(*ack)
	if !ok {
		die(2, "unknown -ack %q (want sync or commit)", *ack)
	}
	if !following && *shards == 0 {
		*shards = 2
	}
	// Every listener first: an address in use fails before the directory is
	// touched, and nothing below has a failure that must undo a started server.
	listen := func(what, addr string) net.Listener {
		if addr == "" {
			return nil
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			die(1, "%s: %v", what, err)
		}
		return ln
	}
	ln, shipLn, obsLn := listen("listen", *addr), listen("ship listen", *ship), listen("obs listen", *obsAddr)

	reg := obs.NewRegistry()
	rec := obs.NewRecorder(*ringSize)
	var tr *obs.Tracer
	if *traceEvery > 0 {
		tr = obs.NewTracer(*traceRing, *traceEvery, reg)
	}
	// The store: a leader's log, or a follower's replica of one. Exactly one
	// of l and r is set from here on.
	var (
		sys  *shard.System
		m    ds.Map
		l    *wal.Log
		r    *replica.Replica
		sopt = server.Options{Workers: *workers, Ack: ackPol, Obs: reg, Rec: rec, Trace: tr}
		err  error
	)
	if following {
		r, err = replica.Open(replica.Options{
			Dir: *dir, Leader: *follow, Backend: *tm, Shards: *shards, DS: *dsName,
			Obs: reg, Rec: rec, Trace: tr,
		})
		if err != nil {
			die(1, "open replica: %v", err)
		}
		// No log and AckCommit: nothing is ever staged for fsync release,
		// and ReadOnly refuses updates on the wire before execution.
		sys, m, sopt.Ack, sopt.ReadOnly = r.System(), r.Map(), server.AckCommit, true
		fmt.Printf("stmserve following on %s\n", *dir)
	} else {
		m, l, err = wal.OpenWith(wal.Options{
			Dir: *dir, Backend: *tm, Shards: *shards, DS: *dsName, Policy: pol,
			Obs: reg, Rec: rec, Trace: tr,
		})
		if err != nil {
			die(1, "open log: %v", err)
		}
		sys = l.System()
	}
	srv := server.New(sys, m, l, sopt)
	srv.Start(ln)
	var shipSvc *replica.ShipService
	if shipLn != nil {
		shipSvc = replica.ServeShipping(shipLn, *dir, replica.ShipperOptions{})
		fmt.Printf("stmserve shipping on %s\n", shipSvc.Addr())
	}
	if obsLn != nil {
		go http.Serve(obsLn, obs.Handler(reg, rec, tr))
		fmt.Printf("stmserve obs on %s\n", obsLn.Addr())
	}
	fmt.Printf("stmserve listening on %s\n", srv.Addr())
	if following {
		fmt.Printf("stmserve tm=%s ds=%s shards=%d workers=%d dir=%s leader=%q\n",
			*tm, *dsName, sys.NumShards(), *workers, *dir, *follow)
	} else {
		fmt.Printf("stmserve tm=%s ds=%s shards=%d policy=%s ack=%s workers=%d dir=%s\n",
			*tm, *dsName, *shards, pol, ackPol, *workers, *dir)
	}

	stopStats := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			var prev server.Stats
			for {
				select {
				case <-stopStats:
					return
				case <-tick.C:
				}
				if following {
					rs := r.Stats()
					fmt.Printf("stmserve stats: applied_ts=%d recs=%d rebases=%d lag=%s health=%s\n",
						rs.AppliedTs, rs.AppliedRecs, rs.Rebases, time.Duration(r.LagNs()), health(r))
					continue
				}
				st, ws := srv.Stats(), l.Stats()
				fmt.Printf("stmserve stats: reqs=%d (+%d) updates=%d acks=%d/%d wal=%s records=%d fsyncs=%d retained=%d\n",
					st.Requests, st.Requests-prev.Requests, st.Updates,
					st.SyncedAcks, st.SyncedAcks+st.FailedAcks,
					l.Health(), ws.Records, ws.Fsyncs, ws.Retained)
				prev = st
			}
		}()
	}

	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			rec.Dump(os.Stderr)
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	fmt.Println("stmserve: draining")
	close(stopStats)
	code := 0
	if shipSvc != nil {
		shipSvc.Close()
	}
	if err := srv.Shutdown(*drain); err != nil {
		fmt.Fprintf(os.Stderr, "stmserve: final sync: %v\n", err)
		code = 1
	}
	st := srv.Stats()
	fmt.Printf("stmserve: served conns=%d reqs=%d updates=%d syncRounds=%d syncedAcks=%d failedAcks=%d\n",
		st.Accepted, st.Requests, st.Updates, st.SyncRounds, st.SyncedAcks, st.FailedAcks)
	if following {
		rs := r.Stats()
		fmt.Printf("stmserve: applied recs=%d ops=%d ts=%d rebases=%d polls=%d health=%s\n",
			rs.AppliedRecs, rs.AppliedOps, rs.AppliedTs, rs.Rebases, rs.Polls, health(r))
		if *promote {
			if _, l, err = r.Promote(); err != nil {
				die(1, "promote: %v", err)
			}
			fmt.Printf("stmserve: promoted at ts=%d\n", l.Stats().RecoveredTs)
		} else {
			r.Close()
		}
	}
	if l != nil {
		if err := l.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "stmserve: close log: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// health is a follower's state as its stats and exit lines print it: with
// the tail, apply or feed error behind a "lagging" when there is one — a
// leader that cannot be dialled shows up here and nowhere else.
func health(r *replica.Replica) string {
	if err := r.Err(); err != nil {
		return fmt.Sprintf("%s (%v)", r.Health(), err)
	}
	return r.Health().String()
}
