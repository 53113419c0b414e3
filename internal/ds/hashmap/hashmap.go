// Package hashmap implements the transactional chained hashmap of the
// paper's appendix (Fig 13): a fixed bucket array where each bucket heads a
// linked list of nodes. Since the hash is not order-preserving, range
// queries are replaced by size queries — an atomic count of every key, which
// is the long-running read that exercises multiversioning.
package hashmap

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

type node struct {
	key  stm.Word
	val  stm.Word
	next stm.Word // arena index of next node; 0 terminates
}

// Map is a transactional hashmap.
type Map struct {
	buckets []stm.Word // arena index of chain head; 0 = empty
	ar      *arena.Arena[node]
}

// New creates a hashmap with the given number of buckets (the paper uses
// 1 million) and capacity hint.
func New(buckets, capacity int) *Map {
	return &Map{
		buckets: make([]stm.Word, buckets),
		ar:      arena.New[node](capacity),
	}
}

func (m *Map) bucket(key uint64) *stm.Word {
	return &m.buckets[stm.Mix64(key)%uint64(len(m.buckets))]
}

// SearchTx implements ds.Map.
func (m *Map) SearchTx(tx stm.Txn, key uint64) (uint64, bool) {
	for idx := tx.Read(m.bucket(key)); idx != 0; {
		n := m.ar.Get(idx)
		if tx.Read(&n.key) == key {
			return tx.Read(&n.val), true
		}
		idx = tx.Read(&n.next)
	}
	return 0, false
}

// InsertTx implements ds.Map.
func (m *Map) InsertTx(tx stm.Txn, key, val uint64) bool {
	b := m.bucket(key)
	head := tx.Read(b)
	for idx := head; idx != 0; {
		n := m.ar.Get(idx)
		if tx.Read(&n.key) == key {
			return false
		}
		idx = tx.Read(&n.next)
	}
	shard := int(key)
	idx := m.ar.Alloc(shard)
	tx.OnAbort(m.ar, shard, idx)
	n := m.ar.Get(idx)
	tx.Write(&n.key, key)
	tx.Write(&n.val, val)
	tx.Write(&n.next, head)
	tx.Write(b, idx)
	return true
}

// DeleteTx implements ds.Map.
func (m *Map) DeleteTx(tx stm.Txn, key uint64) bool {
	b := m.bucket(key)
	var prev *stm.Word = b
	for idx := tx.Read(b); idx != 0; {
		n := m.ar.Get(idx)
		next := tx.Read(&n.next)
		if tx.Read(&n.key) == key {
			tx.Write(prev, next)
			// Recycle only after a grace period: a doomed reader
			// may still traverse this node (paper §4.5).
			tx.Free(m.ar, int(key), idx)
			return true
		}
		prev = &n.next
		idx = next
	}
	return false
}

// RangeTx implements ds.Map. The hash is not order-preserving, so this
// scans everything and filters — present for interface completeness; the
// benchmark uses SizeTx.
func (m *Map) RangeTx(tx stm.Txn, lo, hi uint64) (int, uint64) {
	count, sum := 0, uint64(0)
	for i := range m.buckets {
		for idx := tx.Read(&m.buckets[i]); idx != 0; {
			n := m.ar.Get(idx)
			k := tx.Read(&n.key)
			if k >= lo && k <= hi {
				count++
				sum += k
			}
			idx = tx.Read(&n.next)
		}
	}
	return count, sum
}

// SizeTx implements ds.Map: the paper's atomic size query.
func (m *Map) SizeTx(tx stm.Txn) int {
	count := 0
	for i := range m.buckets {
		for idx := tx.Read(&m.buckets[i]); idx != 0; {
			count++
			idx = tx.Read(&m.ar.Get(idx).next)
		}
	}
	return count
}

// VisitTx implements ds.Visitor. The hash is not order-preserving, so pairs
// arrive in bucket order, not key order.
func (m *Map) VisitTx(tx stm.Txn, lo, hi uint64, fn func(key, val uint64)) {
	for i := range m.buckets {
		for idx := tx.Read(&m.buckets[i]); idx != 0; {
			n := m.ar.Get(idx)
			k := tx.Read(&n.key)
			if k >= lo && k <= hi {
				fn(k, tx.Read(&n.val))
			}
			idx = tx.Read(&n.next)
		}
	}
}
