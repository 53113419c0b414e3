// Package mvstm implements Multiverse (Coccimiglio, Brown, Ravi, PPoPP
// 2026): an opaque word-based STM with dynamic multiversioning.
//
// Both addresses and transactions are either unversioned or versioned.
// Transactions begin unversioned on a DCTL-style fast path (encounter-time
// locking, in-place writes, deferred clock); read-only transactions that
// keep aborting switch to a versioned path that reads atomic snapshots out
// of per-address version lists. Addresses are versioned on demand and
// unversioned again by a background thread when old versions stop being
// useful. Four global TM modes (Q, QtoU, U, UtoQ) move the versioning duty
// between readers (Mode Q) and writers (Mode U) to fit the workload.
//
// In Mode U a versioned read is an unversioned read that cannot fail: it
// loads the word in place and accepts it under the unversioned validation
// rule (lock free, lock version below the read clock), and only an address
// written since the snapshot is looked up in its version list (modeURead).
// Because of that, and because Mode U writers version whatever they write, a
// read-only transaction that conflicts in Mode U goes versioned on its first
// abort instead of after K1 — a deviation from the paper, confined to Mode U.
// The minimum Mode U read count is fed only by versioned commits that needed
// a version list, and Stats.VersionListReads counts those reads.
//
// Locks, version lists and bloom filters live in three parallel tables of
// identical size sharing one address mapping, so an address's versioned lock
// also protects its version list and the program's memory layout is never
// changed (paper §3.1, Figure 2).
package mvstm

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bloom"
	"repro/internal/ebr"
	"repro/internal/gclock"
	"repro/internal/stm"
	"repro/internal/vlock"
)

// Mode is a TM mode (paper §3.3). The global mode counter increases
// monotonically; the mode is its value modulo 4, so modes cycle
// Q → QtoU → U → UtoQ → Q.
type Mode uint64

const (
	// ModeQ: versioned transactions version the addresses they read;
	// unversioned transactions are largely oblivious. Unversioning is
	// enabled. The TM starts here.
	ModeQ Mode = iota
	// ModeQtoU (transient): writers already version, readers still act
	// as in Mode Q, while local-Mode-Q writers drain.
	ModeQtoU
	// ModeU: writers version every address they write; versioned
	// readers assume all relevant addresses are versioned.
	ModeU
	// ModeUtoQ (transient): versioned readers fall back to Mode Q
	// behaviour while local-Mode-U readers drain; writers still version.
	ModeUtoQ
)

func (m Mode) String() string {
	switch m {
	case ModeQ:
		return "Q"
	case ModeQtoU:
		return "QtoU"
	case ModeU:
		return "U"
	default:
		return "UtoQ"
	}
}

func modeOf(counter uint64) Mode { return Mode(counter & 3) }

// PinQ / PinU are values for Config.PinnedMode.
const (
	PinNone = -1 // normal dynamic mode switching
	PinQ    = 0  // force Mode Q forever (ablation, paper Fig 8 "Mode Q only")
	PinU    = 2  // force Mode U forever (ablation, paper Fig 8 "Mode U only")
)

// Config holds Multiverse's tunable parameters. Zero values select the
// paper's evaluation defaults (§5): K1=100, K2=16, K3=28, S=10.
type Config struct {
	// LockTableSize is the shared size of the lock, VLT and bloom
	// tables (rounded up to a power of two). Default 1<<20.
	LockTableSize int
	// Clock, when non-nil, is an externally owned global clock shared
	// with other TM instances (internal/shard composes N instances over
	// one clock so a single increment freezes a cross-instance
	// snapshot). The owner must have initialized it to a non-zero value.
	// nil (the default) gives the instance a private clock.
	Clock *gclock.Clock
	// K1: failed attempts before a read-only transaction switches to
	// the versioned path (in Mode U the first failed attempt does it, see
	// the package comment).
	K1 int
	// K2: failed attempts after which a read-only transaction attempts
	// the Q→QtoU CAS iff its read count is at least the minimum Mode U
	// read count.
	K2 int
	// K3: failed versioned attempts after which a versioned transaction
	// unconditionally attempts the Q→QtoU CAS.
	K3 int
	// S: consecutive small transactions before a thread's sticky
	// Mode U bit is cleared; also the divisor of the small-transaction
	// read-count threshold.
	S int
	// UnversionThreshold, when non-zero, overrides the §4.4 heuristic
	// with a fixed clock-delta threshold (used by tests and ablations).
	UnversionThreshold uint64
	// OnCommit, when non-nil, observes every committed update transaction
	// with a non-empty redo buffer at its commit linearization point
	// (after read-set validation, before write locks are released). See
	// stm.CommitObserver for the contract. internal/wal installs its log
	// streams here so durability is an observer of the commit protocol,
	// never a participant in it.
	OnCommit stm.CommitObserver
	// BGInterval is the pause between background-thread passes.
	// Default 100µs.
	BGInterval time.Duration
	// PinnedMode pins the TM to a fixed mode (PinQ or PinU) and
	// disables mode switching; PinNone (or the zero value via
	// DefaultPinned) enables normal switching. Use NewPinned or set
	// explicitly to PinQ/PinU.
	PinnedMode int
	// DisableUnversioning stops the background thread from ever
	// unversioning buckets (ablation).
	DisableUnversioning bool
	// DisableBloom makes every bloom filter query answer "maybe"
	// (ablation: measures what the filters buy).
	DisableBloom bool
	// DisableBG suppresses the background thread entirely (unit tests
	// drive transitions manually).
	DisableBG bool
	// ObsConfig wires the flight recorder (aborts with reasons, mode
	// switches) and tags the instance's events and spans.
	stm.ObsConfig
}

// The §4.4 unversioning heuristic's two parameters at the paper's §5 values;
// nothing varies them, so they are not Config fields.
const (
	// paramL is the length of the commit-timestamp-delta average list.
	paramL = 10
	// paramP is the fraction of the (descending) delta list averaged to form
	// the unversioning threshold.
	paramP = 0.10
)

func (c *Config) fill() {
	if c.LockTableSize == 0 {
		c.LockTableSize = 1 << 20
	}
	if c.K1 == 0 {
		c.K1 = 100
	}
	if c.K2 == 0 {
		c.K2 = 16
	}
	if c.K3 == 0 {
		c.K3 = 28
	}
	if c.S == 0 {
		c.S = 10
	}
	if c.BGInterval == 0 {
		c.BGInterval = 100 * time.Microsecond
	}
}

// System is a Multiverse instance.
type System struct {
	stm.SysBase
	cfg    Config
	clock  *gclock.Clock
	locks  *vlock.Table
	blooms *bloom.Table
	vlt    []vltBucket
	// dirty is a bitmap of VLT buckets that may hold version lists, so
	// the unversioning pass scans only versioned buckets.
	dirty []atomic.Uint64

	modeCounter     atomic.Uint64
	firstObsModeUTs atomic.Uint64 // clock observed right after entering Mode U; 0 = invalid
	minModeUReads   atomic.Uint64 // min read count of versioned txns committed in Mode U that read a version list

	slots slotList

	// Node pools (§4.5): versioned writes and versionAddr draw version
	// and VLT nodes from per-thread caches over these sharded free
	// lists; ebr reclaims feed them back after the grace period.
	vnPool  pool[versionNode, *versionNode]
	vltPool pool[vltNode, *vltNode]

	bgCtr     stm.Counters
	bgSlotBuf []*slot
	bgHandle  *ebr.Handle
	stop      atomic.Bool
	bgWG      sync.WaitGroup
	deltas    deltaRing
}

// New creates a Multiverse instance with dynamic mode switching.
func New(cfg Config) *System {
	if cfg.PinnedMode == 0 {
		cfg.PinnedMode = PinNone // zero Config means "not pinned"
	}
	return newSystem(cfg)
}

// NewPinned creates an instance pinned to Mode Q or Mode U (the paper's
// Fig 8 "mode switching disabled" ablations).
func NewPinned(cfg Config, mode Mode) *System {
	switch mode {
	case ModeQ:
		cfg.PinnedMode = PinQ
	case ModeU:
		cfg.PinnedMode = PinU
	default:
		panic("mvstm: can only pin to ModeQ or ModeU")
	}
	return newSystem(cfg)
}

func newSystem(cfg Config) *System {
	cfg.fill()
	s := &System{cfg: cfg}
	s.Init(cfg.ObsConfig)
	s.vnPool.newNode = func() *versionNode { return &versionNode{pool: &s.vnPool} }
	s.vltPool.newNode = func() *vltNode { return &vltNode{pool: &s.vltPool} }
	if cfg.Clock != nil {
		// Shared clock: already initialized (and possibly advanced) by
		// its owner; resetting it would break monotonicity for sibling
		// instances.
		s.clock = cfg.Clock
	} else {
		s.clock = new(gclock.Clock)
		s.clock.Set(1)
	}
	s.locks = vlock.NewTable(cfg.LockTableSize)
	n := s.locks.Len()
	s.blooms = bloom.NewTable(n)
	s.vlt = make([]vltBucket, n)
	s.dirty = make([]atomic.Uint64, (n+63)/64)
	s.minModeUReads.Store(^uint64(0))
	s.deltas.init(paramL, paramP)
	s.Reg.Add(&s.bgCtr)
	if cfg.PinnedMode == PinU {
		s.modeCounter.Store(uint64(ModeU))
		s.firstObsModeUTs.Store(s.clock.Load())
	}
	if !cfg.DisableBG {
		s.bgWG.Add(1)
		go s.bgLoop()
	}
	return s
}

// Name implements stm.System.
func (s *System) Name() string { return "multiverse" }

// Mode returns the current global TM mode.
func (s *System) Mode() Mode { return modeOf(s.modeCounter.Load()) }

// Close stops the background thread and drains reclamation queues.
func (s *System) Close() {
	s.stop.Store(true)
	s.bgWG.Wait()
	s.SysBase.Close()
}

// Register implements stm.System.
func (s *System) Register() stm.Thread { return s.register() }

// RegisterMV is like Register but returns the concrete type, which
// additionally offers the snapshot-isolation path (paper §3.5).
func (s *System) RegisterMV() *Thread { return s.register() }

func (s *System) register() *Thread {
	t := &Thread{sys: s, slot: s.slots.add()}
	t.txn.t = t
	s.Attach(&t.ThreadBase, &t.txn)
	t.vnCache.init(&s.vnPool, t.TID)
	t.vltCache.init(&s.vltPool, t.TID)
	return t
}

// markDirty records that bucket idx may hold version lists.
func (s *System) markDirty(idx uint64) {
	w := &s.dirty[idx/64]
	bit := uint64(1) << (idx % 64)
	if w.Load()&bit == 0 {
		w.Or(bit)
	}
}

// getVList returns the version list for w in bucket idx, or nil.
func (s *System) getVList(idx uint64, w *stm.Word) *versionList {
	return s.vlt[idx].lookup(w)
}

// versionAddr associates a fresh version list with w, whose initial version
// carries (ts, data) — the last consistent value of the address (paper
// §3.1.1). The caller must hold bucket idx's lock (as updater or flagged).
// Nodes come from the shared pools; the transactional hot path uses
// Thread.versionAddr, which draws from the per-thread caches instead.
func (s *System) versionAddr(idx, hash uint64, w *stm.Word, data, ts uint64) *versionList {
	return s.installVersion(idx, hash, w, s.vltPool.get(0), s.vnPool.get(0), data, ts)
}

// versionAddr is the allocation-free hot-path variant of
// System.versionAddr.
func (t *Thread) versionAddr(idx, hash uint64, w *stm.Word, data, ts uint64) *versionList {
	return t.sys.installVersion(idx, hash, w, t.vltCache.get(), t.vnCache.get(), data, ts)
}

func (s *System) installVersion(idx, hash uint64, w *stm.Word, n *vltNode, vn *versionNode, data, ts uint64) *versionList {
	vn.meta.Store(makeMeta(ts, false))
	vn.data.Store(data)
	vn.older.Store(nil)
	n.addr = w
	n.vlist.head.Store(vn)
	s.vlt[idx].insert(n)
	s.blooms.At(idx).TryAdd(hash)
	s.markDirty(idx)
	return &n.vlist
}

// bloomContains consults bucket idx's filter (always "maybe" under the
// DisableBloom ablation, which forces the VLT walk).
func (s *System) bloomContains(idx, hash uint64) bool {
	if s.cfg.DisableBloom {
		return true
	}
	return s.blooms.At(idx).Contains(hash)
}

// deltaRing implements the §4.4 unversioning-threshold heuristic: a ring of
// the last L per-pass averages of announced commit-timestamp deltas; the
// threshold is the mean of the top P fraction (descending order).
type deltaRing struct {
	buf     []uint64
	scratch []uint64 // sort buffer reused across threshold() calls
	n       int      // filled entries
	pos     int
	pLen    int
}

func (r *deltaRing) init(l int, p float64) {
	r.buf = make([]uint64, l)
	r.scratch = make([]uint64, l)
	r.pLen = int(float64(l)*p + 0.5)
	if r.pLen < 1 {
		r.pLen = 1
	}
}

func (r *deltaRing) push(avg uint64) {
	r.buf[r.pos] = avg
	r.pos = (r.pos + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// threshold returns the current unversioning threshold; ok=false until the
// ring has collected L averages. The background thread calls this up to
// every pass, so the sort runs in the preallocated scratch buffer.
func (r *deltaRing) threshold() (uint64, bool) {
	if r.n < len(r.buf) {
		return 0, false
	}
	sorted := r.scratch
	copy(sorted, r.buf)
	// Descending insertion sort (L is tiny).
	for i := 1; i < len(sorted); i++ {
		v := sorted[i]
		j := i - 1
		for j >= 0 && sorted[j] < v {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = v
	}
	var sum uint64
	for i := 0; i < r.pLen; i++ {
		sum += sorted[i]
	}
	return sum / uint64(r.pLen), true
}
