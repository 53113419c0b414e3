package obs

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// ringWords is a slot's payload width: with the sequence stamp a slot is
// eight words, one cache line.
const ringWords = 7

// DefaultRingSize is the ring capacity binaries use unless overridden.
const DefaultRingSize = 4096

type ringSlot struct {
	seq atomic.Uint64 // 0 = never written, ringBusy = a writer is mid-publish
	w   [ringWords]atomic.Uint64
}

const ringBusy = ^uint64(0)

// ringEntry is one slot read whole.
type ringEntry struct {
	seq uint64 // global publish order (1-based)
	w   [ringWords]uint64
}

// ring is the fixed-size lock-free seqlock ring under both the event
// Recorder and the span Tracer. publish is allocation-free and safe from any
// goroutine; scan runs concurrently with writers and drops slots caught
// mid-rewrite. Nil-receiver safety is the wrappers' job: they test before
// they read the clock, so a layer without a recorder pays one branch.
type ring struct {
	slots []ringSlot
	mask  uint64
	next  atomic.Uint64
}

// newRing returns a ring of size slots rounded up to a power of two (minimum
// 16; size <= 0 selects DefaultRingSize).
func newRing(size int) ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	if size < 16 {
		size = 16
	}
	if size&(size-1) != 0 {
		size = 1 << bits.Len(uint(size))
	}
	return ring{slots: make([]ringSlot, size), mask: uint64(size - 1)}
}

// publish appends one entry, overwriting the oldest when the ring is full.
//
// Publication protocol: the writer claims a unique sequence number, takes
// the slot by swapping its seq to ringBusy, stores the payload words, then
// stores the sequence number last. A slot's seq only ever grows, so a reader
// that sees the same published seq before and after loading the words
// observed one writer's entry whole. A writer that finds its slot busy or
// already holding a newer entry was lapped by a full ring while it was
// descheduled; it drops its entry rather than interleave words with the
// writer that lapped it (two writers in one slot can leave mixed words under
// a seq the reader's before/after check accepts).
func (r *ring) publish(w [ringWords]uint64) {
	seq := r.next.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	if old := s.seq.Load(); old > seq || !s.seq.CompareAndSwap(old, ringBusy) {
		return
	}
	for i := range w {
		s.w[i].Store(w[i])
	}
	s.seq.Store(seq)
}

// published returns the number of entries published so far (not capped at
// ring size).
func (r *ring) published() uint64 { return r.next.Load() }

// scan returns the decodable entries currently in the ring, oldest first.
func (r *ring) scan() []ringEntry {
	out := make([]ringEntry, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		e := ringEntry{seq: s.seq.Load()}
		if e.seq == 0 || e.seq == ringBusy {
			continue
		}
		for j := range e.w {
			e.w[j] = s.w[j].Load()
		}
		if s.seq.Load() != e.seq {
			continue // torn: a writer rewrote the slot while we read it
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}
