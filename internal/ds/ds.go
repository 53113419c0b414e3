// Package ds defines the common interface of the transactional key-value
// data structures used in the paper's evaluation ((a,b)-tree, internal AVL
// tree, external BST, hashmap), plus transaction-running convenience
// wrappers. All structures are built purely from stm.Word cells and
// index-based arenas, so a single implementation runs unchanged on every TM.
package ds

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/stm"
)

// Map is a transactional ordered (except hashmap) key-value map over uint64
// keys (key 0 is reserved). The *Tx methods run inside a caller-provided
// transaction and therefore compose; the package-level wrappers run one
// operation per transaction, as the paper's benchmark does.
type Map interface {
	// InsertTx adds key→val if absent; reports whether it inserted.
	InsertTx(tx stm.Txn, key, val uint64) bool
	// DeleteTx removes key; reports whether it was present.
	DeleteTx(tx stm.Txn, key uint64) bool
	// SearchTx returns the value stored under key.
	SearchTx(tx stm.Txn, key uint64) (uint64, bool)
	// RangeTx visits all keys in [lo, hi] and returns their count and
	// key sum (the paper's range query; key sum doubles as a
	// consistency check).
	RangeTx(tx stm.Txn, lo, hi uint64) (count int, keySum uint64)
	// SizeTx counts all keys (the paper's hashmap size query).
	SizeTx(tx stm.Txn) int
}

// Visitor is implemented by structures that can enumerate key/value pairs
// inside a transaction. Combined with a read-only (versioned) transaction it
// yields an atomic snapshot of the whole structure — the substrate for the
// consistent serialization the paper's layout-preserving design enables.
type Visitor interface {
	// VisitTx calls fn for every key in [lo, hi], in key order for the
	// ordered structures.
	VisitTx(tx stm.Txn, lo, hi uint64, fn func(key, val uint64))
}

// KV is one exported pair.
type KV struct{ Key, Val uint64 }

// Export atomically snapshots m's pairs in [lo, hi]. The snapshot is
// serializable with encoding/gob or encoding/json as-is.
func Export(th stm.Thread, m Visitor, lo, hi uint64) (pairs []KV, ok bool) {
	ok = th.ReadOnly(func(tx stm.Txn) {
		pairs = pairs[:0] // the body may re-run
		m.VisitTx(tx, lo, hi, func(k, v uint64) {
			pairs = append(pairs, KV{k, v})
		})
	})
	return pairs, ok
}

// ExportSorted snapshots every pair of m, through a thread registered on
// sys for the call, in ascending key order: the form in which two maps —
// a leader and its follower, a state and its recovery — compare with
// slices.Equal. ok=false means the scan starved; a caller polling for
// convergence just polls again.
func ExportSorted(sys stm.System, m Map) (pairs []KV, ok bool) {
	th := sys.Register()
	defer th.Unregister()
	pairs, ok = Export(th, m.(Visitor), 1, ^uint64(0))
	slices.SortFunc(pairs, func(a, b KV) int { return cmp.Compare(a.Key, b.Key) })
	return pairs, ok
}

// op is one wrapper call. It holds the inputs and the results in separate
// fields: a body reruns from the top after a TM retry, a shard probe or a
// snapshot re-freeze, so it may write only results and must find its inputs
// as the wrapper left them. Its five bodies are bound once, when the op is
// made (internal/shard's Thread.boundBody pattern), and ops are recycled
// through opPool, so a wrapper call allocates nothing in steady state.
type op struct {
	// Inputs.
	m        Map
	key, val uint64 // Range: lo, hi

	// Results.
	hit bool   // inserted, deleted, found
	n   int    // Range's count, Size's size
	u   uint64 // Search's value, Range's key sum

	insert, delete, search, rng, size func(stm.Txn)
}

var opPool = sync.Pool{New: func() any { return newOp() }}

func newOp() *op {
	o := new(op)
	o.insert = func(tx stm.Txn) { o.hit = o.m.InsertTx(tx, o.key, o.val) }
	o.delete = func(tx stm.Txn) { o.hit = o.m.DeleteTx(tx, o.key) }
	o.search = func(tx stm.Txn) { o.u, o.hit = o.m.SearchTx(tx, o.key) }
	o.rng = func(tx stm.Txn) { o.n, o.u = o.m.RangeTx(tx, o.key, o.val) }
	o.size = func(tx stm.Txn) { o.n = o.m.SizeTx(tx) }
	return o
}

func getOp(m Map, key, val uint64) *op {
	o := opPool.Get().(*op)
	o.m, o.key, o.val = m, key, val
	return o
}

// put returns o to the pool; the caller has read its results. The map is
// cleared so a pooled op does not keep a closed structure reachable, and
// the results so the next caller cannot see this one's.
func (o *op) put() {
	o.m = nil
	o.hit, o.n, o.u = false, 0, 0
	opPool.Put(o)
}

// Insert runs InsertTx in its own update transaction. ok=false means the
// transaction starved (hit its TM's attempt bound) or was cancelled.
func Insert(th stm.Thread, m Map, key, val uint64) (inserted, ok bool) {
	o := getOp(m, key, val)
	ok = th.Atomic(o.insert)
	inserted = o.hit
	o.put()
	return
}

// Delete runs DeleteTx in its own update transaction.
func Delete(th stm.Thread, m Map, key uint64) (deleted, ok bool) {
	o := getOp(m, key, 0)
	ok = th.Atomic(o.delete)
	deleted = o.hit
	o.put()
	return
}

// Search runs SearchTx in its own read-only transaction.
func Search(th stm.Thread, m Map, key uint64) (val uint64, found, ok bool) {
	o := getOp(m, key, 0)
	ok = th.ReadOnly(o.search)
	val, found = o.u, o.hit
	o.put()
	return
}

// Range runs RangeTx in its own read-only transaction.
func Range(th stm.Thread, m Map, lo, hi uint64) (count int, keySum uint64, ok bool) {
	o := getOp(m, lo, hi)
	ok = th.ReadOnly(o.rng)
	count, keySum = o.n, o.u
	o.put()
	return
}

// Size runs SizeTx in its own read-only transaction.
func Size(th stm.Thread, m Map) (n int, ok bool) {
	o := getOp(m, 0, 0)
	ok = th.ReadOnly(o.size)
	n = o.n
	o.put()
	return
}
