package mvstm

import (
	"math/bits"
	"runtime"
	"time"

	"repro/internal/obs"
)

// bgLoop is the background thread (paper Listing 6): it performs every mode
// transition except Q→QtoU (which any worker may CAS), and, while the TM is
// in Mode Q, unversions VLT buckets whose versions have gone stale.
//
// The sleep is adaptive: while nothing is happening (stable mode, no
// versioning activity) the pass rate decays ~50× so an oversubscribed
// machine doesn't spend its cores scanning idle announcement arrays; any
// mode-counter movement snaps it back to BGInterval.
func (s *System) bgLoop() {
	defer s.bgWG.Done()
	idle := 0
	lastCounter := uint64(0)
	for !s.stop.Load() {
		c := s.modeCounter.Load()
		worked := s.bgStep()
		if worked || c != lastCounter || modeOf(c) != ModeQ {
			idle = 0
		} else if idle < 50 {
			idle++
		}
		lastCounter = s.modeCounter.Load()
		time.Sleep(s.cfg.BGInterval * time.Duration(1+idle))
	}
}

// bgStep performs one background pass, reporting whether it did meaningful
// work. Exposed to tests (with DisableBG) so transitions can be driven
// deterministically.
func (s *System) bgStep() bool {
	c := s.modeCounter.Load()
	if s.cfg.PinnedMode != PinNone {
		// Mode pinned: only Mode Q unversioning may run.
		worked := false
		if s.cfg.PinnedMode == PinQ && !s.cfg.DisableUnversioning {
			worked = s.unversionPass()
		}
		s.reclaimTick()
		return worked
	}
	switch modeOf(c) {
	case ModeQ:
		if !s.cfg.DisableUnversioning {
			worked := s.unversionPass()
			s.reclaimTick()
			return worked
		}
	case ModeQtoU:
		// Wait for local-Mode-Q writers to drain, then enter Mode U
		// and record the first observed Mode U timestamp (§4.2).
		if s.drained(c, kindUpdater) {
			s.modeCounter.Store(c + 1)
			s.firstObsModeUTs.Store(s.clock.Load())
			s.bgCtr.ModeSwitches.Add(1)
			s.cfg.Obs.Record(obs.EvModeSwitch, uint64(s.cfg.ObsID), c+1, 0)
		}
		s.reclaimTick()
		return true
	case ModeU:
		// Leave Mode U once no thread is flagged sticky.
		if s.noSticky() {
			s.modeCounter.Store(c + 1)
			s.bgCtr.ModeSwitches.Add(1)
			s.cfg.Obs.Record(obs.EvModeSwitch, uint64(s.cfg.ObsID), c+1, 0)
		}
		s.reclaimTick()
		return true
	case ModeUtoQ:
		// Wait for local-Mode-U versioned readers to drain; then
		// invalidate the first observed Mode U timestamp and return
		// to Mode Q.
		if s.drained(c, kindVersioned) {
			s.firstObsModeUTs.Store(0)
			s.modeCounter.Store(c + 1)
			s.bgCtr.ModeSwitches.Add(1)
			s.cfg.Obs.Record(obs.EvModeSwitch, uint64(s.cfg.ObsID), c+1, 0)
		}
		s.reclaimTick()
		return true
	}
	s.reclaimTick()
	return false
}

// drained reports whether one full scan of the announcement array found no
// active transaction of the given kind whose local mode counter is behind
// counter (paper §4.3's waitForWorkers, specialized per transition).
func (s *System) drained(counter uint64, kind uint32) bool {
	s.bgSlotBuf = s.slots.snapshot(s.bgSlotBuf)
	for _, sl := range s.bgSlotBuf {
		c := sl.localModeCounter.Load()
		if c == idleCounter || c >= counter {
			continue
		}
		if sl.kind.Load() == kind {
			return false
		}
	}
	return true
}

// noSticky reports whether no live thread currently requests Mode U.
func (s *System) noSticky() bool {
	s.bgSlotBuf = s.slots.snapshot(s.bgSlotBuf)
	for _, sl := range s.bgSlotBuf {
		if sl.sticky.Load() {
			return false
		}
	}
	return true
}

// reclaimTick nudges epoch-based reclamation along even when worker threads
// are not retiring.
func (s *System) reclaimTick() {
	s.EBR.Advance()
}

// unversionPass implements §4.4. It first folds the threads' announced
// commit-timestamp deltas into the threshold heuristic, then unversions
// every dirty VLT bucket whose newest version is at least threshold clock
// ticks behind the global clock. Reports whether any versioning activity
// was observed (the bg loop idles down otherwise).
func (s *System) unversionPass() bool {
	threshold, ok := s.cfg.UnversionThreshold, s.cfg.UnversionThreshold != 0
	worked := false
	if !ok {
		var sum, n uint64
		s.bgSlotBuf = s.slots.snapshot(s.bgSlotBuf)
		for _, sl := range s.bgSlotBuf {
			if d := sl.delta.Load(); d != 0 {
				sum += d - 1
				n++
			}
		}
		if n > 0 {
			s.deltas.push(sum / n)
			worked = true
		}
		threshold, ok = s.deltas.threshold()
		if !ok {
			return worked // heuristic not warmed up yet
		}
	}
	now := s.clock.Load()
	for wi := range s.dirty {
		w := s.dirty[wi].Load()
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			w &^= 1 << tz
			idx := uint64(wi)*64 + uint64(tz)
			s.maybeUnversionBucket(idx, now, threshold)
			worked = true
		}
	}
	return worked
}

// maybeUnversionBucket unversions bucket idx if its newest version is stale
// enough: claim the bucket's lock (flag — concurrent readers wait rather
// than abort), detach the bucket list, reset the bloom filter, release the
// lock with its old version (no data changed), and retire the detached
// nodes through EBR so pinned traversals stay safe.
func (s *System) maybeUnversionBucket(idx, now, threshold uint64) {
	bkt := &s.vlt[idx]
	if bkt.head.Load() == nil {
		s.dirty[idx/64].And(^(uint64(1) << (idx % 64)))
		return
	}
	latest, active := bkt.latestTimestamp()
	if active || now-latest < threshold {
		return
	}
	l := s.locks.At(idx)
	pre, ok := l.TryFlag(0)
	if !ok {
		return // busy; try again next pass
	}
	// Re-read under the lock: a writer may have added versions between
	// our staleness check and the flag acquisition.
	latest, active = bkt.latestTimestamp()
	if active || now-latest < threshold {
		l.Release(pre.Version())
		return
	}
	head := bkt.head.Load()
	bkt.head.Store(nil)
	s.blooms.At(idx).Reset()
	s.dirty[idx/64].And(^(uint64(1) << (idx % 64)))
	l.Release(pre.Version())
	// Retire the detached chain closure-free, returning the nodes to the
	// pools after the grace period. Only the vltNodes and each list's
	// HEAD version are still live here: every non-head version node was
	// already retired by the commit that superseded it (and a rolled-back
	// node by its abort), so retiring it again would double-free. The
	// in-limbo nodes finish their own cut-then-free reclamation
	// independently; their CAS cuts fail harmlessly once the successor
	// has been recycled.
	if s.bgHandle == nil {
		s.bgHandle = s.EBR.Register()
	}
	for n := head; n != nil; {
		next := n.next.Load() // RetireNode may collect n this pass's epoch+2 later; read next first
		if vn := n.vlist.head.Load(); vn != nil {
			vn.cut = nil
			vn.state = vnRetireFree
			s.bgHandle.RetireNode(vn)
		}
		s.bgHandle.RetireNode(n)
		n = next
	}
	runtime.Gosched()
	s.bgCtr.Unversionings.Add(1)
}
