// Package ebr implements epoch-based memory reclamation (paper §4.5).
//
// The STMs in this repository pair EBR with transactions: a thread pins its
// epoch for the duration of each transaction attempt and unpins at commit or
// abort. Objects unlinked by a committed transaction are retired rather than
// freed; a retired object is reclaimed only after every thread has passed
// through a grace period (two global epoch advances), so a doomed reader that
// survived past an unlink — the TL2/DCTL race described in §4.5 — can still
// safely dereference it.
//
// Retires are revocable at the transaction layer: a transaction buffers its
// frees and hands them to EBR only on commit, so an aborted attempt never
// retires anything (paper: "when we rollback the effects of an update
// transaction we also revoke any of its retires").
//
// Nothing on the retire path allocates: a freed arena slot travels as a
// Release value (owner, shard, index) and a pooled object as a Reclaimable
// threaded through its own intrusive link.
package ebr

import (
	"sync"
	"sync/atomic"
)

const idle = ^uint64(0) // announcement value while unpinned

// advanceEvery bounds how many retires a handle buffers before it attempts
// to advance the global epoch and collect.
const advanceEvery = 64

// Reclaimable is an object that can be retired without allocating: it
// carries its own intrusive retire link (embed RetireLink) and knows how to
// reclaim itself, typically by returning to a pool. Reclaim reports whether
// the object needs ANOTHER grace period before it may be touched again: a
// two-phase reclaimer unlinks itself from the live structure in its first
// pass (return true) — late readers may still be traversing the link it cut
// — and only recycles its memory in its second (return false).
type Reclaimable interface {
	SetRetireNext(Reclaimable)
	RetireNext() Reclaimable
	Reclaim() (again bool)
}

// RetireLink is the intrusive link Reclaimable implementations embed. The
// same link may double as a pool free-list link: an object is never in a
// limbo list and a free list at once.
type RetireLink struct{ next Reclaimable }

// SetRetireNext implements Reclaimable.
func (l *RetireLink) SetRetireNext(n Reclaimable) { l.next = n }

// RetireNext implements Reclaimable.
func (l *RetireLink) RetireNext() Reclaimable { return l.next }

// Releaser owns slots a retire hands back; *arena.Arena satisfies it.
type Releaser interface {
	Release(shard int, idx uint64)
}

// Release is one deferred slot release, Rel.Release(Shard, Idx), held by
// value: buffering it in a transaction's hooks or a limbo bucket allocates
// nothing, where a closure over the same three words would.
type Release struct {
	Rel   Releaser
	Shard int
	Idx   uint64
}

// Run performs the release.
func (r Release) Run() { r.Rel.Release(r.Shard, r.Idx) }

type limboBucket struct {
	epoch      uint64
	rels       []Release
	head, tail Reclaimable // intrusive retire list
}

func (b *limboBucket) empty() bool { return len(b.rels) == 0 && b.head == nil }

// appendNode links n at the bucket's tail.
func (b *limboBucket) appendNode(n Reclaimable) {
	n.SetRetireNext(nil)
	if b.tail == nil {
		b.head = n
	} else {
		b.tail.SetRetireNext(n)
	}
	b.tail = n
}

// Handle is a per-thread EBR participant. Not safe for concurrent use.
type Handle struct {
	d        *Domain
	ann      atomic.Uint64 // announced epoch, or idle
	limbo    [3]limboBucket
	retires  int
	pinDepth int
	dead     atomic.Bool
}

// Domain is a reclamation domain shared by all threads of one TM instance.
type Domain struct {
	epoch atomic.Uint64

	mu      sync.Mutex
	handles []*Handle
	orphans []limboBucket // limbo of unregistered handles
}

// NewDomain creates an empty domain at epoch 2 (so epoch-2 arithmetic never
// underflows).
func NewDomain() *Domain {
	d := &Domain{}
	d.epoch.Store(2)
	return d
}

// Epoch returns the current global epoch.
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// Register adds a participant.
func (d *Domain) Register() *Handle {
	h := &Handle{d: d}
	h.ann.Store(idle)
	d.mu.Lock()
	d.handles = append(d.handles, h)
	d.mu.Unlock()
	return h
}

// Pin announces the current epoch, protecting any object reachable at entry
// from reclamation. Pins nest.
func (h *Handle) Pin() {
	h.pinDepth++
	if h.pinDepth > 1 {
		return
	}
	h.ann.Store(h.d.epoch.Load())
}

// Unpin ends the critical section begun by Pin.
func (h *Handle) Unpin() {
	h.pinDepth--
	if h.pinDepth > 0 {
		return
	}
	h.ann.Store(idle)
}

// Pinned reports whether the handle is inside a critical section.
func (h *Handle) Pinned() bool { return h.pinDepth > 0 }

// Retire schedules r to run once no pinned thread can still hold a
// reference acquired before the retire.
func (h *Handle) Retire(r Release) {
	b := h.bucket()
	b.rels = append(b.rels, r)
	h.restamp(b)
	h.maybeAdvance()
}

// RetireNode schedules n for reclamation after the grace period without
// allocating: n is threaded onto the handle's limbo through its intrusive
// RetireLink. If n.Reclaim later returns true, n is granted one further
// grace period and reclaimed again.
func (h *Handle) RetireNode(n Reclaimable) {
	b := h.bucket()
	b.appendNode(n)
	h.restamp(b)
	h.maybeAdvance()
}

// bucket returns the current epoch's limbo bucket. A stale bucket is
// flushed only once its stamp is a full grace period old — a restamped
// bucket (see restamp) can be revisited at stamp+1, in which case its
// contents simply wait for the next cycle. The stamp is raise-only: a
// reentrant flush (via a re-retire's maybeAdvance) may already have
// stamped a newer epoch than the one loaded here.
func (h *Handle) bucket() *limboBucket {
	e := h.d.epoch.Load()
	b := &h.limbo[e%3]
	if b.epoch != e && e >= b.epoch+2 {
		h.flush(b)
		if e > b.epoch {
			b.epoch = e
		}
	}
	return b
}

// restamp re-reads the global epoch after an append and raises the
// bucket's stamp if it moved. Safety needs the filed epoch to be at least
// the epoch current when the object became unreachable: the epoch can
// advance between bucket()'s load and the append — concurrently by
// another thread, or reentrantly by flush() when a two-phase re-retire
// trips maybeAdvance — and a stale stamp would shorten the grace period,
// recycling the object while a reader pinned at the newer epoch still
// traverses it. Raising the stamp only delays the bucket's other
// contents, which is safe.
func (h *Handle) restamp(b *limboBucket) {
	if e := h.d.epoch.Load(); e > b.epoch {
		b.epoch = e
	}
}

func (h *Handle) maybeAdvance() {
	h.retires++
	if h.retires >= advanceEvery {
		h.retires = 0
		h.d.Advance()
		h.Collect()
	}
}

// flush reclaims everything in b. Contents are detached first so that
// reentrant retires (a Reclaim needing a second grace period re-retires
// into the current bucket, which may be b itself) never land in the list
// being walked.
func (h *Handle) flush(b *limboBucket) {
	rels := b.rels
	b.rels = nil
	n := b.head
	b.head, b.tail = nil, nil
	runAll(rels)
	if b.rels == nil {
		b.rels = rels[:0] // keep the backing array unless a retire re-grew it
	}
	for n != nil {
		next := n.RetireNext()
		n.SetRetireNext(nil)
		if n.Reclaim() {
			h.RetireNode(n)
		}
		n = next
	}
}

// Collect frees every limbo bucket that has passed its grace period
// (retired at least two epoch advances ago).
func (h *Handle) Collect() {
	e := h.d.epoch.Load()
	for i := range h.limbo {
		b := &h.limbo[i]
		if !b.empty() && e >= b.epoch+2 {
			h.flush(b)
		}
	}
}

// Unregister removes the handle. Its remaining limbo is adopted by the
// domain and reclaimed on later advances.
func (h *Handle) Unregister() {
	if h.dead.Swap(true) {
		return
	}
	h.ann.Store(idle)
	d := h.d
	d.mu.Lock()
	for i, x := range d.handles {
		if x == h {
			d.handles[i] = d.handles[len(d.handles)-1]
			d.handles = d.handles[:len(d.handles)-1]
			break
		}
	}
	for i := range h.limbo {
		if !h.limbo[i].empty() {
			d.orphans = append(d.orphans, h.limbo[i])
			h.limbo[i] = limboBucket{}
		}
	}
	d.mu.Unlock()
}

// Advance attempts one global epoch advance. It succeeds iff every pinned
// handle has announced the current epoch. Returns whether the epoch moved.
func (d *Domain) Advance() bool {
	e := d.epoch.Load()
	d.mu.Lock()
	for _, h := range d.handles {
		a := h.ann.Load()
		if a != idle && a < e {
			d.mu.Unlock()
			return false
		}
	}
	moved := d.epoch.CompareAndSwap(e, e+1)
	if moved {
		d.reclaimOrphansLocked(e + 1)
	}
	d.mu.Unlock()
	return moved
}

func (d *Domain) reclaimOrphansLocked(now uint64) {
	kept := d.orphans[:0]
	var requeue limboBucket // nodes that asked for another grace period
	requeue.epoch = now
	for _, b := range d.orphans {
		if now >= b.epoch+2 {
			runAll(b.rels)
			for n := b.head; n != nil; {
				next := n.RetireNext()
				n.SetRetireNext(nil)
				if n.Reclaim() {
					requeue.appendNode(n)
				}
				n = next
			}
		} else {
			kept = append(kept, b)
		}
	}
	if requeue.head != nil {
		kept = append(kept, requeue)
	}
	d.orphans = kept
}

// Drain reclaims everything unconditionally. Callers must guarantee
// quiescence (no pinned handles, no concurrent operations); it is intended
// for System.Close.
func (d *Domain) Drain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range d.handles {
		for i := range h.limbo {
			drainBucket(&h.limbo[i])
		}
	}
	for i := range d.orphans {
		drainBucket(&d.orphans[i])
	}
	d.orphans = nil
}

// drainBucket runs everything in b, iterating multi-grace-period reclaims
// to completion (quiescence makes further grace periods vacuous).
func drainBucket(b *limboBucket) {
	runAll(b.rels)
	b.rels = nil
	for n := b.head; n != nil; {
		next := n.RetireNext()
		n.SetRetireNext(nil)
		for n.Reclaim() {
		}
		n = next
	}
	b.head, b.tail = nil, nil
}

func runAll(rels []Release) {
	for _, r := range rels {
		r.Run()
	}
}
