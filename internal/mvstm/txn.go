package mvstm

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/vlock"
)

// Thread is a Multiverse worker handle (paper Listing 1's thread locals).
type Thread struct {
	stm.ThreadBase
	sys  *System
	slot *slot

	// Sticky Mode U machinery (paper §4.3).
	sticky         bool
	consecSmall    int
	smallThreshold uint64 // reads; 0 until sampled after a CAS attempt
	samplePending  bool

	// Pool caches (§4.5): versioned writes and versionAddr draw nodes
	// here instead of the heap.
	vnCache  poolCache[versionNode, *versionNode]
	vltCache poolCache[vltNode, *vltNode]

	txn txn
}

type undoEntry struct {
	w   *stm.Word
	old uint64
}

type txn struct {
	stm.Hooks
	t *Thread

	localModeCounter uint64
	localMode        Mode
	rClock           uint64
	readOnly         bool
	versioned        bool
	si               bool // snapshot-isolation path (§3.5)
	readCnt          uint64
	listReads        uint64 // this attempt's reads that needed a version list (modeURead's slow path)
	initialVTs       uint64 // initial versioned timestamp (first versioned attempt)

	// Whole-transaction state, set by run and steered by After.
	pinTs             uint64 // SnapshotAt's timestamp; 0 reads at the live clock
	goVersioned       bool   // the next attempt runs on the versioned path
	versionedAttempts int

	reads   []*vlock.Lock
	undo    []undoEntry
	locked  []*vlock.Lock
	vwrites []*versionNode
	vlists  []*versionList
	// retires buffers superseded version heads for closure-free eventual
	// frees: flushed to ebr on commit, dropped (revoked) on abort, when
	// the superseded node turns out to still be the list head.
	retires []*versionNode
}

// Atomic implements stm.Thread: an unversioned update transaction.
func (t *Thread) Atomic(fn func(stm.Txn)) bool { return t.run(fn, false, false, 0) }

// ReadOnly implements stm.Thread. Read-only transactions begin unversioned
// and may switch to the versioned path after repeated aborts.
func (t *Thread) ReadOnly(fn func(stm.Txn)) bool { return t.run(fn, true, false, 0) }

// AtomicSI runs fn under snapshot isolation (paper §3.5): reads follow the
// versioned path (a consistent snapshot, possibly in the past) while writes
// follow the unversioned path (atomic DCTL-style update in the present).
// Only for applications that tolerate SI's weaker guarantee.
func (t *Thread) AtomicSI(fn func(stm.Txn)) bool { return t.run(fn, false, true, 0) }

// Unregister implements stm.Thread.
func (t *Thread) Unregister() {
	t.slot.dead.Store(true)
	t.slot.sticky.Store(false)
	t.ThreadBase.Unregister()
	t.vnCache.drain()
	t.vltCache.drain()
}

// run starts a transaction and hands it to the driver. pinTs != 0 is
// SnapshotAt: the read clock is pinned and the attempts bounded.
func (t *Thread) run(fn func(stm.Txn), readOnly, si bool, pinTs uint64) bool {
	tx := &t.txn
	tx.readOnly, tx.si, tx.pinTs = readOnly, si, pinTs
	tx.goVersioned = si
	tx.versionedAttempts = 0
	tx.initialVTs = pinTs
	pol := stm.Policy{Backoff: true}
	if pinTs != 0 {
		pol.MaxAttempts = snapshotAttempts
	}
	return stm.Drive(&t.ThreadBase, fn, readOnly, pol)
}

// Begin implements stm.Protocol: the attempt runs on the path the previous
// attempt's After chose.
func (tx *txn) Begin(int) {
	tx.begin(tx.readOnly, tx.goVersioned, tx.si)
	if tx.versioned {
		tx.versionedAttempts++
	}
	if tx.pinTs != 0 {
		tx.rClock = tx.pinTs // pin: begin loaded the current clock, override it
	}
}

// After implements stm.Protocol. Every finished attempt withdraws its
// announcement; a commit retires the versions it superseded; an abort runs
// the heuristics (paper Listing 1 abort, §4.3) that decide whether to switch
// this transaction to the versioned path and whether to nudge the TM towards
// Mode U.
//
// Deviation from the paper's K1, Mode U only: a read-only transaction that
// conflicts in Mode U goes versioned on its first abort. Writers already
// version everything they write there, so the version it lost to is in a
// list, and a versioned attempt costs what an unversioned one does (see
// modeURead); K1 - 1 more unversioned attempts could only fail the same way.
// K1/K2/K3 keep the paper's meaning in every other mode.
func (tx *txn) After(attempt int, oc stm.Outcome) {
	t := tx.t
	t.slot.localModeCounter.Store(idleCounter)
	if tx.listReads > 0 {
		t.Ctr.VersionListReads.Add(tx.listReads)
	}
	switch oc {
	case stm.Committed:
		// Closure-free eventual frees: the versions this commit
		// superseded retire now, on the intrusive path.
		for i, vn := range tx.retires {
			t.EBR.RetireNode(vn)
			tx.retires[i] = nil
		}
		tx.retires = tx.retires[:0]
		if tx.versioned {
			t.Ctr.VersionedCommits.Add(1)
		}
	case stm.Conflicted:
		switch {
		case tx.pinTs != 0:
			// A pinned snapshot retries versioned (see snapshotAttempts).
			tx.goVersioned = true
		case tx.readOnly && !tx.si:
			sys := t.sys
			if !tx.goVersioned && (tx.localMode == ModeU || attempt >= sys.cfg.K1 ||
				(attempt >= sys.cfg.K2 && tx.readCnt >= sys.minModeUReads.Load())) {
				tx.goVersioned = true
			}
			t.maybeModeCAS(tx, attempt, tx.versionedAttempts)
		}
	}
}

// maybeModeCAS attempts the Mode Q → Mode QtoU transition (paper §4.3):
// after K2 attempts iff the read count reaches the minimum Mode U read
// count, or unconditionally after K3 versioned attempts. Any thread that
// attempts the CAS sets its sticky bit and schedules a small-transaction
// threshold sample.
func (t *Thread) maybeModeCAS(tx *txn, attempts, versionedAttempts int) {
	sys := t.sys
	if sys.cfg.PinnedMode != PinNone {
		return
	}
	c := sys.modeCounter.Load()
	if modeOf(c) != ModeQ || tx.localMode != ModeQ {
		return
	}
	want := tx.versioned && versionedAttempts >= sys.cfg.K3
	if !want && attempts >= sys.cfg.K2 && tx.readCnt >= sys.minModeUReads.Load() {
		want = true
	}
	if !want {
		return
	}
	t.sticky = true
	t.slot.sticky.Store(true)
	t.samplePending = true
	if sys.modeCounter.CompareAndSwap(c, c+1) {
		t.Ctr.ModeSwitches.Add(1)
		sys.cfg.Obs.Record(obs.EvModeSwitch, uint64(sys.cfg.ObsID), c+1, 0)
	}
}

func (tx *txn) begin(readOnly, versioned, si bool) {
	t := tx.t
	sys := t.sys
	tx.readOnly = readOnly
	tx.versioned = versioned
	tx.si = si
	tx.readCnt = 0
	tx.listReads = 0
	tx.reads = tx.reads[:0]
	tx.undo = tx.undo[:0]
	tx.locked = tx.locked[:0]
	tx.vwrites = tx.vwrites[:0]
	tx.vlists = tx.vlists[:0]
	tx.retires = tx.retires[:0]

	// Announce the observed mode counter and transaction kind for the
	// background thread's drain scans (Listing 1 beginTxn).
	c := sys.modeCounter.Load()
	tx.localModeCounter = c
	tx.localMode = modeOf(c)
	kind := uint32(kindReader)
	switch {
	case !readOnly:
		kind = kindUpdater
	case versioned:
		kind = kindVersioned
	}
	if si {
		kind = kindUpdater // SI writes like an updater; drains must wait for it
	}
	t.slot.kind.Store(kind)
	t.slot.localModeCounter.Store(c)

	tx.rClock = sys.clock.Load()
	if versioned && tx.initialVTs == 0 {
		// First versioned attempt: save the initial versioned
		// timestamp for the §4.4 commit-delta statistic.
		tx.initialVTs = tx.rClock
	}
}

// validateLock is paper Listing 2's validateLock.
func (tx *txn) validateLock(s vlock.State) bool {
	if s.Held() && s.TID() == tx.t.TID {
		return true
	}
	if s.Held() {
		return false
	}
	return s.Version() < tx.rClock
}

// Read implements stm.Txn (paper Listing 4 TMRead).
func (tx *txn) Read(w *stm.Word) uint64 {
	tx.readCnt++
	if tx.versioned {
		if tx.localMode == ModeU {
			return tx.modeURead(w)
		}
		// Modes Q and QtoU read as Mode Q; Mode UtoQ forces versioned
		// transactions back to Mode Q behaviour (Table 1).
		return tx.modeQRead(w)
	}
	l := tx.t.sys.locks.Of(w)
	data := w.Load()
	s := l.Load()
	for s.Flagged() {
		// Address is being versioned; wait for the flag holder.
		runtime.Gosched()
		s = l.Load()
	}
	if !tx.validateLock(s) {
		tx.AbortWith(s.AbortReason())
	}
	if !tx.readOnly {
		tx.reads = append(tx.reads, l)
	}
	return data
}

// modeQRead is paper Listing 4's modeQ_versionedRead: read the version list
// if the address is versioned, otherwise version it ourselves.
func (tx *txn) modeQRead(w *stm.Word) uint64 {
	sys := tx.t.sys
	hash := sys.locks.Hash(w)
	idx := hash & sys.locks.Mask()
	already := false
	if sys.cfg.DisableBloom {
		already = true
	} else {
		already = sys.blooms.At(idx).TryAdd(hash)
	}
	if already {
		if vl := sys.getVList(idx, w); vl != nil {
			data, ok := vl.traverse(tx.rClock)
			if !ok {
				tx.AbortWith(obs.ReasonVersionGone)
			}
			return data
		}
		// Bloom false positive: fall through and version it.
	}
	return tx.versionThenRead(idx, hash, w)
}

// versionThenRead is paper Listing 4's versionThenRead: claim the lock with
// the versioning flag, re-check for a racing versioner, then install an
// initial version holding the address's current value. The versioning
// persists even if the subsequent validation aborts this transaction.
func (tx *txn) versionThenRead(idx, hash uint64, w *stm.Word) uint64 {
	sys := tx.t.sys
	l := sys.locks.At(idx)
	var pre vlock.State
	for {
		s := l.Load()
		if s.Held() {
			runtime.Gosched()
			continue
		}
		if got, ok := l.TryFlag(tx.t.TID); ok {
			pre = got
			break
		}
	}
	// Re-check: a concurrent transaction may have versioned the address
	// while we waited for the lock (§4.1).
	if vl := sys.getVList(idx, w); vl != nil {
		l.Release(pre.Version())
		data, ok := vl.traverse(tx.rClock)
		if !ok {
			tx.AbortWith(obs.ReasonVersionGone)
		}
		return data
	}
	data := w.Load()
	ts := sys.firstObsModeUTs.Load()
	if ts == 0 {
		ts = pre.Version()
	}
	tx.t.versionAddr(idx, hash, w, data, ts)
	tx.t.Ctr.AddrVersioned.Add(1)
	l.Release(pre.Version())
	if !(pre.Version() < tx.rClock) {
		// Validation failed; the address stays versioned but this
		// transaction must abort (§4.1).
		tx.AbortWith(obs.ReasonValidation)
	}
	return data
}

// modeURead is a Mode U versioned read. It reads in place first: a lock that
// is not held and whose version is below the read clock means no transaction
// has written under it since the snapshot, so the in-place value *is* the
// snapshot value. This is the unversioned path's validation rule
// (validateLock), sound for the same reason and at a pinned clock too, and
// it holds whether or not the address is versioned. Only the addresses that
// fail it — written, or sharing a lock with a word written, since rClock —
// pay for the bloom/VLT/version-list walk in modeUReadSlow.
func (tx *txn) modeURead(w *stm.Word) uint64 {
	sys := tx.t.sys
	hash := sys.locks.Hash(w)
	idx := hash & sys.locks.Mask()
	l := sys.locks.At(idx)
	val := w.Load()
	if s := l.Load(); !s.Held() &&
		(s.Version() < tx.rClock || (faultLaxInPlace && s.Version() == tx.rClock)) {
		return val
	}
	return tx.modeUReadSlow(w, idx, hash, l)
}

// modeUReadSlow is paper Listing 5's modeU_versionedRead. In Mode U every
// address written since the mode change is versioned, so an unversioned
// address has a stable value; the retry state machine disambiguates lock
// holders from lock-table collisions without versioning anything.
func (tx *txn) modeUReadSlow(w *stm.Word, idx, hash uint64, l *vlock.Lock) uint64 {
	sys := tx.t.sys
	var lastVer, lastVal uint64
	didRetry := false
	for {
		if sys.bloomContains(idx, hash) {
			if vl := sys.getVList(idx, w); vl != nil {
				tx.listReads++
				data, ok := vl.traverse(tx.rClock)
				if !ok {
					tx.AbortWith(obs.ReasonVersionGone)
				}
				return data
			}
		}
		// The address is not versioned, hence unwritten since the TM
		// entered Mode U.
		val := w.Load()
		s := l.Load()
		fo := sys.firstObsModeUTs.Load()
		validVer := s.Version() < tx.rClock || (fo != 0 && fo < tx.rClock)
		if didRetry {
			verChanged := s.Version() != lastVer
			valChanged := val != lastVal
			switch {
			case verChanged:
				// Still unversioned across a version change: the
				// lock activity was a table collision; our first
				// read was consistent.
				return lastVal
			case s.Held() && validVer && !verChanged && !valChanged:
				// Holder has not written (it would have versioned);
				// the value we first read predates any update.
				return lastVal
			case !s.Held() && validVer:
				return lastVal
			}
			tx.AbortWith(obs.ReasonValidation)
		}
		if s.Held() {
			// Locked: snapshot and re-examine once.
			lastVer = s.Version()
			lastVal = val
			didRetry = true
			runtime.Gosched()
			continue
		}
		if validVer {
			return val
		}
		tx.AbortWith(obs.ReasonValidation)
	}
}

// Write implements stm.Txn (paper Listing 3 TMWrite): encounter-time lock,
// undo-log, then version-list update and in-place write. In every mode but
// Mode Q, writers version unversioned addresses before writing.
func (tx *txn) Write(w *stm.Word, v uint64) {
	if tx.readOnly {
		panic("mvstm: Write inside ReadOnly transaction")
	}
	t := tx.t
	sys := t.sys
	hash := sys.locks.Hash(w)
	idx := hash & sys.locks.Mask()
	l := sys.locks.At(idx)
	var preVersion uint64
	for {
		s := l.Load()
		if s.Flagged() {
			// Held solely for versioning: wait, don't abort.
			runtime.Gosched()
			continue
		}
		if s.Locked() {
			if s.TID() == t.TID {
				preVersion = s.Version()
				break
			}
			tx.AbortWith(obs.ReasonLockBusy)
		}
		if s.Version() >= tx.rClock {
			tx.AbortWith(obs.ReasonValidation)
		}
		if l.CompareAndSwap(s, vlock.Pack(true, false, t.TID, s.Version())) {
			preVersion = s.Version()
			tx.locked = append(tx.locked, l)
			break
		}
		tx.AbortWith(obs.ReasonLockBusy)
	}
	old := w.Load()
	tx.undo = append(tx.undo, undoEntry{w, old})
	if tx.localMode == ModeQ {
		w.Store(v)
		// Mode Q: add a version only if the address is already
		// versioned (tryWriteToVersionList).
		if !sys.bloomContains(idx, hash) {
			return
		}
		vl := sys.getVList(idx, w)
		if vl == nil {
			return
		}
		tx.versionedWrite(vl, v)
		return
	}
	// Modes QtoU, U, UtoQ: writers are forced to version (Table 1).
	vl := sys.getVList(idx, w)
	if vl == nil {
		ts := sys.firstObsModeUTs.Load()
		if ts == 0 {
			ts = preVersion
		}
		// The initial version carries the last consistent value —
		// the value before this transaction's write (§3.1.1).
		vl = t.versionAddr(idx, hash, w, old, ts)
		t.Ctr.AddrVersioned.Add(1)
	}
	tx.versionedWrite(vl, v)
	w.Store(v)
}

// versionedWrite updates w's version list under the held lock: rewrite this
// transaction's own TBD head, or push a new TBD version at the read clock
// and retire the previous head via an eventual free (Listing 3). The new
// node comes from the thread's pool cache; the eventual free is buffered
// closure-free in tx.retires.
func (tx *txn) versionedWrite(vl *versionList, v uint64) {
	head := vl.head.Load()
	if head != nil && metaTBD(head.meta.Load()) {
		head.data.Store(v)
		return
	}
	vn := tx.t.vnCache.get()
	vn.meta.Store(makeMeta(tx.rClock, true))
	vn.data.Store(v)
	vn.older.Store(head)
	vl.head.Store(vn)
	tx.vwrites = append(tx.vwrites, vn)
	tx.vlists = append(tx.vlists, vl)
	if head != nil {
		// eventualFree(previous version): if this transaction commits,
		// head's reclaim first severs vn.older (after one grace
		// period) and then recycles head (after a second — see the
		// vnRetire states). Writing cut/state here is safe even if we
		// later abort and drop the retire: head stays the list head
		// and the next superseding writer overwrites both fields under
		// the same lock.
		head.cut = vn
		head.state = vnRetireCut
		tx.retires = append(tx.retires, head)
	}
}

// Commit implements stm.Protocol (paper Listing 1's tryCommit).
func (tx *txn) Commit() {
	t := tx.t
	sys := t.sys
	if tx.readOnly {
		if tx.versioned {
			t.onVersionedCommit(tx)
		}
		t.noteCommitSize(tx)
		return
	}
	if tx.si && tx.versioned {
		t.onVersionedCommit(tx)
	}
	// Revalidate the read set (snapshot-isolation transactions have an
	// empty read set: their reads came from version lists).
	for _, l := range tx.reads {
		if s := l.Load(); !tx.validateLock(s) {
			tx.AbortWith(s.AbortReason())
		}
	}
	commitClock := sys.clock.Load()
	// Commit observation (durability seam): past validation, at the commit
	// timestamp, before *any* publication — the TBD unset below is already
	// visible to versioned readers waiting in traverse (no lock check
	// guards them), so the observer must run first or an SI transaction
	// could read this commit's value and log its own dependent record
	// ahead of ours. Nothing between here and the releases can abort.
	if co := sys.cfg.OnCommit; co != nil {
		if redo := tx.Redo(); len(redo) > 0 {
			co.ObserveCommit(commitClock, tx.TraceID(), redo)
		}
	}
	// Unset TBD markers with the commit clock, then release locks.
	for _, vn := range tx.vwrites {
		vn.meta.Store(makeMeta(commitClock, false))
	}
	for _, l := range tx.locked {
		l.Release(commitClock)
	}
	tx.locked = tx.locked[:0]
	tx.undo = tx.undo[:0]
	tx.vwrites = tx.vwrites[:0]
	tx.vlists = tx.vlists[:0]
	t.noteCommitSize(tx)
}

// onVersionedCommit publishes the commit-timestamp delta for the
// unversioning heuristic and updates the global minimum Mode U read count
// (§4.2, §4.4).
func (t *Thread) onVersionedCommit(tx *txn) {
	delta := t.sys.clock.Load() - tx.initialVTs
	t.slot.delta.Store(delta + 1)
	// The minimum Mode U read count is the size of the smallest transaction
	// Mode U saved: one that needed a version list to commit. A versioned
	// commit that read everything in place (a short transaction escalated by
	// one unlucky abort) says nothing about what versioning buys.
	if tx.localMode == ModeU && tx.listReads > 0 {
		for {
			cur := t.sys.minModeUReads.Load()
			if tx.readCnt >= cur || t.sys.minModeUReads.CompareAndSwap(cur, tx.readCnt) {
				break
			}
		}
	}
}

// noteCommitSize maintains the sticky-bit machinery (§4.3): the first commit
// after a CAS attempt samples the small-transaction threshold (1/S of its
// size); S consecutive small commits clear the sticky bit. Unversioned
// transactions always count as small.
func (t *Thread) noteCommitSize(tx *txn) {
	if t.samplePending {
		th := tx.readCnt / uint64(t.sys.cfg.S)
		if th == 0 {
			th = 1
		}
		t.smallThreshold = th
		t.samplePending = false
	}
	small := !tx.versioned || (t.smallThreshold > 0 && tx.readCnt <= t.smallThreshold)
	if small {
		t.consecSmall++
	} else {
		t.consecSmall = 0
	}
	if t.sticky && t.consecSmall >= t.sys.cfg.S {
		t.sticky = false
		t.slot.sticky.Store(false)
		t.consecSmall = 0
	}
}

// Rollback implements stm.Protocol (paper Listing 1's abort): roll back
// versioned writes (deleted timestamps unblock waiting traversals; the nodes
// are unlinked and retired), roll back in-place writes, revoke the buffered
// version retires, and release write locks at a freshly incremented clock.
func (tx *txn) Rollback() {
	t := tx.t
	// Versioned-write rollback, under the still-held locks. The unlinked
	// node is unreachable for new readers, so a single grace period (for
	// traversals that already hold it) suffices before it is recycled.
	for i := len(tx.vwrites) - 1; i >= 0; i-- {
		vn := tx.vwrites[i]
		vl := tx.vlists[i]
		vn.meta.Store(makeMeta(deletedTs, false))
		vl.head.Store(vn.older.Load())
		vn.cut = nil
		vn.state = vnRetireFree
		t.EBR.RetireNode(vn)
	}
	tx.vwrites = tx.vwrites[:0]
	tx.vlists = tx.vlists[:0]
	// Revoke the buffered eventual frees: the nodes this attempt meant to
	// supersede are list heads again.
	for i := range tx.retires {
		tx.retires[i] = nil
	}
	tx.retires = tx.retires[:0]
	// In-place rollback, newest first.
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i].w.Store(tx.undo[i].old)
	}
	tx.undo = tx.undo[:0]
	// The clock advances on every abort (Listing 1: nextClock =
	// gClock.increment()): this is what guarantees a retry with a fresh
	// read clock can validate past the version that just conflicted.
	next := t.sys.clock.Increment()
	for _, l := range tx.locked {
		l.Release(next)
	}
	tx.locked = tx.locked[:0]
	tx.reads = tx.reads[:0]
}
