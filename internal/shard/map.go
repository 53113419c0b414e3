package shard

import (
	"fmt"

	"repro/internal/ds"
	"repro/internal/stm"
)

// Map is a hash-partitioned transactional map: one backend ds.Map per
// shard, keys routed by ShardOf. It satisfies ds.Map and ds.Visitor and
// must be driven through transactions of a *Thread registered on the same
// System.
//
// Point operations bind their transaction to the key's shard and run at
// native single-instance cost. RangeTx/SizeTx/VisitTx over more than one
// shard run in snapshot mode (package doc); their results are linearizable,
// with the freeze increment as the linearization point. Visit order is per
// shard only — like the hashmap backend, the sharded map is unordered
// across the whole key space.
type Map struct {
	sys  *System
	maps []ds.Map
}

// NewMap builds the sharded map; newMap constructs each shard's backend
// (callers typically divide capacity by the shard count).
func NewMap(sys *System, newMap func(shard int) ds.Map) *Map {
	m := &Map{sys: sys, maps: make([]ds.Map, len(sys.shards))}
	for i := range m.maps {
		m.maps[i] = newMap(i)
	}
	return m
}

// shardTxn asserts that tx came from this map's System.
func (m *Map) shardTxn(tx stm.Txn) *txn {
	x, ok := tx.(*txn)
	if !ok {
		panic("shard: Map methods require a transaction from a shard.Thread (not a raw TM transaction)")
	}
	if x.th.sys != m.sys {
		panic("shard: transaction belongs to a different sharded System than this Map")
	}
	return x
}

// bindPoint routes a point operation on key. In the probe state the first
// operation arms the plan (placeholder=true: the caller returns an
// empty-map placeholder and the body reruns bound); a second probe
// operation unwinds to bind. In the bound state it verifies the shard
// matches (escalating a read-only body to snapshot mode, rejecting a
// cross-shard update). Otherwise the caller runs the operation on x.inner,
// or — in the snapshot state — as a pinned mini transaction (pinnedAt).
func (m *Map) bindPoint(x *txn, key uint64, op string) (s int, placeholder bool) {
	s = m.sys.ShardOf(key)
	switch x.state {
	case stateProbe:
		x.arm(s)
		return s, true
	case stateBound:
		if s != x.shard {
			if !x.readOnly {
				panic(fmt.Sprintf("shard: cross-shard update transaction: %s(key=%d) routes to shard %d but the transaction is bound to shard %d; update transactions must touch keys of one shard (co-locate with System.ShardOf)",
					op, key, s, x.shard))
			}
			x.escalateToSnap()
		}
	case stateSnap:
		// Caller serves the op at the frozen timestamp.
	default:
		panic("shard: transaction used outside its thread's Atomic/ReadOnly")
	}
	return s, false
}

// bindCross routes a cross-shard query: always snapshot mode (single-shard
// systems instead bind to their only shard and keep exact unsharded
// behaviour). Only read-only bodies may query across shards.
func (m *Map) bindCross(x *txn, op string) {
	switch x.state {
	case stateProbe:
		if len(m.maps) == 1 {
			// Nothing spans shards on a single-shard system: bind and
			// serve natively, in update bodies too (mirrors the bound
			// case below).
			panic(bindSignal{shard: 0})
		}
		if !x.readOnly {
			panic("shard: " + op + " spans shards and must run in a read-only transaction (cross-shard queries are 2PC-free snapshot reads)")
		}
		panic(toSnap)
	case stateBound:
		if len(m.maps) == 1 {
			return // bound to the only shard; run natively
		}
		if !x.readOnly {
			panic("shard: " + op + " spans shards and must run in a read-only transaction (cross-shard queries are 2PC-free snapshot reads)")
		}
		x.escalateToSnap()
	case stateSnap:
	default:
		panic("shard: transaction used outside its thread's Atomic/ReadOnly")
	}
}

// InsertTx implements ds.Map.
func (m *Map) InsertTx(tx stm.Txn, key, val uint64) bool {
	x := m.shardTxn(tx)
	if x.readOnly {
		panic("shard: InsertTx inside ReadOnly transaction")
	}
	s, placeholder := m.bindPoint(x, key, "InsertTx")
	if placeholder {
		return true // empty-map placeholder; the body reruns bound
	}
	return m.maps[s].InsertTx(x.inner, key, val)
}

// DeleteTx implements ds.Map.
func (m *Map) DeleteTx(tx stm.Txn, key uint64) bool {
	x := m.shardTxn(tx)
	if x.readOnly {
		panic("shard: DeleteTx inside ReadOnly transaction")
	}
	s, placeholder := m.bindPoint(x, key, "DeleteTx")
	if placeholder {
		return false // empty-map placeholder; the body reruns bound
	}
	return m.maps[s].DeleteTx(x.inner, key)
}

// SearchTx implements ds.Map. In snapshot mode the read runs as its own
// mini transaction pinned at the body's frozen timestamp, so point reads
// compose consistently with cross-shard queries in the same body.
func (m *Map) SearchTx(tx stm.Txn, key uint64) (uint64, bool) {
	x := m.shardTxn(tx)
	s, placeholder := m.bindPoint(x, key, "SearchTx")
	if placeholder {
		return 0, false // empty-map placeholder; the body reruns bound
	}
	if x.state != stateSnap {
		return m.maps[s].SearchTx(x.inner, key)
	}
	v, found, ok := ds.Search(x.th.pinnedAt(s, x.ts), m.maps[s], key)
	if !ok {
		stm.AbortAttempt() // re-freeze and rerun the body
	}
	return v, found
}

// RangeTx implements ds.Map. Degenerate ranges stay cheap: inverted bounds
// are empty without touching any shard, and a single-key range routes like
// a point operation. Everything else scans every shard at the frozen
// timestamp and sums the per-shard results (count and key sum are
// order-free, so no cross-shard merge is needed).
func (m *Map) RangeTx(tx stm.Txn, lo, hi uint64) (count int, keySum uint64) {
	if lo > hi {
		return 0, 0
	}
	x := m.shardTxn(tx)
	if lo == hi {
		s, placeholder := m.bindPoint(x, lo, "RangeTx")
		if placeholder {
			return 0, 0 // empty-map placeholder; the body reruns bound
		}
		if x.state != stateSnap {
			return m.maps[s].RangeTx(x.inner, lo, hi)
		}
		return m.snapRange(x, s, lo, hi)
	}
	m.bindCross(x, "RangeTx")
	if x.state == stateBound { // single-shard system
		return m.maps[0].RangeTx(x.inner, lo, hi)
	}
	for s := range m.maps {
		c, ks := m.snapRange(x, s, lo, hi)
		count += c
		keySum += ks
	}
	return count, keySum
}

// snapRange runs shard s's part of a range at the body's frozen timestamp.
func (m *Map) snapRange(x *txn, s int, lo, hi uint64) (int, uint64) {
	c, ks, ok := ds.Range(x.th.pinnedAt(s, x.ts), m.maps[s], lo, hi)
	if !ok {
		stm.AbortAttempt()
	}
	return c, ks
}

// SizeTx implements ds.Map: the sum of every shard's size at the frozen
// timestamp.
func (m *Map) SizeTx(tx stm.Txn) (n int) {
	x := m.shardTxn(tx)
	m.bindCross(x, "SizeTx")
	if x.state == stateBound { // single-shard system
		return m.maps[0].SizeTx(x.inner)
	}
	for s := range m.maps {
		c, ok := ds.Size(x.th.pinnedAt(s, x.ts), m.maps[s])
		if !ok {
			stm.AbortAttempt()
		}
		n += c
	}
	return n
}

// VisitTx implements ds.Visitor. Pairs are emitted shard by shard (ordered
// within a shard for ordered backends, unordered across shards). Each
// shard's pairs are staged until that shard's pinned scan commits, so fn
// never observes the duplicate emissions of an internal retry.
func (m *Map) VisitTx(tx stm.Txn, lo, hi uint64, fn func(key, val uint64)) {
	x := m.shardTxn(tx)
	m.bindCross(x, "VisitTx")
	if x.state == stateBound { // single-shard system
		m.visitor(0).VisitTx(x.inner, lo, hi, fn)
		return
	}
	for s := range m.maps {
		vis := m.visitor(s)
		if !x.th.pinnedAt(s, x.ts).ReadOnly(func(in stm.Txn) {
			x.visitBuf = x.visitBuf[:0] // the pinned scan may retry internally
			vis.VisitTx(in, lo, hi, func(k, v uint64) { x.visitBuf = append(x.visitBuf, kv{k, v}) })
		}) {
			stm.AbortAttempt()
		}
		for _, p := range x.visitBuf {
			fn(p.k, p.v)
		}
	}
	x.visitBuf = x.visitBuf[:0]
}

func (m *Map) visitor(s int) ds.Visitor {
	vis, ok := m.maps[s].(ds.Visitor)
	if !ok {
		panic("shard: backend map does not implement ds.Visitor")
	}
	return vis
}
