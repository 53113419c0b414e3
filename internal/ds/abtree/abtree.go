// Package abtree implements the transactional (a,b)-tree of the paper's
// main evaluation (a=4, b=16): a B+-tree whose leaves hold up to b key/value
// pairs and whose internal nodes hold up to b children with separator keys.
// Inserts split full nodes on the way down's unwind; deletes use relaxed
// rebalancing (empty nodes are unlinked from their parent, but non-empty
// underfull nodes are tolerated), which preserves the paper's access
// patterns while keeping the transactional footprint small.
package abtree

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// B is the maximum fanout / leaf capacity (the paper's b=16; a=B/4).
const B = 16

// walkStack sizes RangeTx's and SizeTx's traversal stacks: a walk holds at
// most B-1 siblings per level, so 128 covers eight levels and the stack
// stays off the heap (a deeper walk's append moves it there, correctly).
const walkStack = 128

// node serves as both leaf and internal node.
//
// Leaf (leaf==1): size keys in keys[0..size) sorted ascending, values in
// vals[0..size).
//
// Internal (leaf==0): size children in vals[0..size); keys[i] is the
// minimum key of the subtree at vals[i] for i>=1 (keys[0] is unused:
// child 0 covers everything below keys[1]).
type node struct {
	leaf stm.Word
	size stm.Word
	keys [B]stm.Word
	vals [B]stm.Word
}

// Tree is a transactional (a,b)-tree.
type Tree struct {
	root stm.Word // arena index of root; 0 = empty
	ar   *arena.Arena[node]
}

// New creates an empty tree with a capacity hint in keys.
func New(capacity int) *Tree {
	return &Tree{ar: arena.New[node](capacity/(B/2) + 16)}
}

func (t *Tree) alloc(tx stm.Txn, shard int) (uint64, *node) {
	idx := t.ar.Alloc(shard)
	tx.OnAbort(t.ar, shard, idx)
	return idx, t.ar.Get(idx)
}

// childIndex returns the slot of the child covering key: the largest i with
// keys[i] <= key (i>=1), else 0.
func (t *Tree) childIndex(tx stm.Txn, n *node, size int, key uint64) int {
	i := size - 1
	for i >= 1 && tx.Read(&n.keys[i]) > key {
		i--
	}
	return i
}

// SearchTx implements ds.Map.
func (t *Tree) SearchTx(tx stm.Txn, key uint64) (uint64, bool) {
	idx := tx.Read(&t.root)
	for idx != 0 {
		n := t.ar.Get(idx)
		size := int(tx.Read(&n.size))
		if tx.Read(&n.leaf) == 1 {
			for i := 0; i < size; i++ {
				if tx.Read(&n.keys[i]) == key {
					return tx.Read(&n.vals[i]), true
				}
			}
			return 0, false
		}
		idx = tx.Read(&n.vals[t.childIndex(tx, n, size, key)])
	}
	return 0, false
}

// InsertTx implements ds.Map.
func (t *Tree) InsertTx(tx stm.Txn, key, val uint64) bool {
	rootIdx := tx.Read(&t.root)
	if rootIdx == 0 {
		li, l := t.alloc(tx, int(key))
		tx.Write(&l.leaf, 1)
		tx.Write(&l.size, 1)
		tx.Write(&l.keys[0], key)
		tx.Write(&l.vals[0], val)
		tx.Write(&t.root, li)
		return true
	}
	inserted, splitKey, splitIdx := t.insertRec(tx, rootIdx, key, val)
	if splitIdx != 0 {
		// Root split: new internal root with two children.
		ri, r := t.alloc(tx, int(key))
		tx.Write(&r.leaf, 0)
		tx.Write(&r.size, 2)
		tx.Write(&r.vals[0], rootIdx)
		tx.Write(&r.keys[1], splitKey)
		tx.Write(&r.vals[1], splitIdx)
		tx.Write(&t.root, ri)
	}
	return inserted
}

// insertRec inserts into the subtree at idx. If the node splits, it returns
// the separator key and the index of the new right sibling.
func (t *Tree) insertRec(tx stm.Txn, idx, key, val uint64) (inserted bool, splitKey, splitIdx uint64) {
	n := t.ar.Get(idx)
	size := int(tx.Read(&n.size))
	if tx.Read(&n.leaf) == 1 {
		// Find position; reject duplicates.
		pos := 0
		for pos < size {
			k := tx.Read(&n.keys[pos])
			if k == key {
				return false, 0, 0
			}
			if k > key {
				break
			}
			pos++
		}
		if size < B {
			for i := size; i > pos; i-- {
				tx.Write(&n.keys[i], tx.Read(&n.keys[i-1]))
				tx.Write(&n.vals[i], tx.Read(&n.vals[i-1]))
			}
			tx.Write(&n.keys[pos], key)
			tx.Write(&n.vals[pos], val)
			tx.Write(&n.size, uint64(size+1))
			return true, 0, 0
		}
		// Split the leaf: keep the low half, move the high half right,
		// then insert into the appropriate half.
		half := B / 2
		ri, r := t.alloc(tx, int(key))
		tx.Write(&r.leaf, 1)
		for i := half; i < B; i++ {
			tx.Write(&r.keys[i-half], tx.Read(&n.keys[i]))
			tx.Write(&r.vals[i-half], tx.Read(&n.vals[i]))
		}
		tx.Write(&r.size, uint64(B-half))
		tx.Write(&n.size, uint64(half))
		sep := tx.Read(&r.keys[0])
		if key < sep {
			t.insertRec(tx, idx, key, val)
		} else {
			t.insertRec(tx, ri, key, val)
		}
		return true, sep, ri
	}
	// Internal node.
	ci := t.childIndex(tx, n, size, key)
	child := tx.Read(&n.vals[ci])
	inserted, sk, si := t.insertRec(tx, child, key, val)
	if si == 0 {
		return inserted, 0, 0
	}
	// Insert (sk, si) after slot ci.
	if size < B {
		for i := size; i > ci+1; i-- {
			tx.Write(&n.keys[i], tx.Read(&n.keys[i-1]))
			tx.Write(&n.vals[i], tx.Read(&n.vals[i-1]))
		}
		tx.Write(&n.keys[ci+1], sk)
		tx.Write(&n.vals[ci+1], si)
		tx.Write(&n.size, uint64(size+1))
		return inserted, 0, 0
	}
	// Split this internal node, then retry the separator insert into the
	// correct half.
	half := B / 2
	ri, r := t.alloc(tx, int(key))
	tx.Write(&r.leaf, 0)
	for i := half; i < B; i++ {
		tx.Write(&r.keys[i-half], tx.Read(&n.keys[i]))
		tx.Write(&r.vals[i-half], tx.Read(&n.vals[i]))
	}
	tx.Write(&r.size, uint64(B-half))
	tx.Write(&n.size, uint64(half))
	sep := tx.Read(&r.keys[0])
	target := n
	if sk >= sep {
		target = r
	}
	tsize := int(tx.Read(&target.size))
	tci := t.childIndex(tx, target, tsize, sk)
	for i := tsize; i > tci+1; i-- {
		tx.Write(&target.keys[i], tx.Read(&target.keys[i-1]))
		tx.Write(&target.vals[i], tx.Read(&target.vals[i-1]))
	}
	tx.Write(&target.keys[tci+1], sk)
	tx.Write(&target.vals[tci+1], si)
	tx.Write(&target.size, uint64(tsize+1))
	return inserted, sep, ri
}

// DeleteTx implements ds.Map (relaxed rebalancing: nodes that become empty
// are unlinked; non-empty underfull nodes are tolerated).
func (t *Tree) DeleteTx(tx stm.Txn, key uint64) bool {
	rootIdx := tx.Read(&t.root)
	if rootIdx == 0 {
		return false
	}
	deleted, nowEmpty := t.deleteRec(tx, rootIdx, key)
	if nowEmpty {
		tx.Write(&t.root, 0)
		tx.Free(t.ar, int(key), rootIdx)
	} else if deleted {
		// Collapse a single-child internal root.
		n := t.ar.Get(rootIdx)
		if tx.Read(&n.leaf) == 0 && tx.Read(&n.size) == 1 {
			only := tx.Read(&n.vals[0])
			tx.Write(&t.root, only)
			tx.Free(t.ar, int(key), rootIdx)
		}
	}
	return deleted
}

func (t *Tree) deleteRec(tx stm.Txn, idx, key uint64) (deleted, nowEmpty bool) {
	n := t.ar.Get(idx)
	size := int(tx.Read(&n.size))
	if tx.Read(&n.leaf) == 1 {
		for i := 0; i < size; i++ {
			if tx.Read(&n.keys[i]) == key {
				for j := i; j < size-1; j++ {
					tx.Write(&n.keys[j], tx.Read(&n.keys[j+1]))
					tx.Write(&n.vals[j], tx.Read(&n.vals[j+1]))
				}
				tx.Write(&n.size, uint64(size-1))
				return true, size == 1
			}
		}
		return false, false
	}
	ci := t.childIndex(tx, n, size, key)
	childIdx := tx.Read(&n.vals[ci])
	deleted, childEmpty := t.deleteRec(tx, childIdx, key)
	if !childEmpty {
		return deleted, false
	}
	// Unlink the empty child.
	for j := ci; j < size-1; j++ {
		tx.Write(&n.keys[j], tx.Read(&n.keys[j+1]))
		tx.Write(&n.vals[j], tx.Read(&n.vals[j+1]))
	}
	tx.Write(&n.size, uint64(size-1))
	tx.Free(t.ar, int(key), childIdx)
	return deleted, size == 1
}

// RangeTx implements ds.Map.
func (t *Tree) RangeTx(tx stm.Txn, lo, hi uint64) (int, uint64) {
	count, sum := 0, uint64(0)
	stack := make([]uint64, 0, walkStack)
	if r := tx.Read(&t.root); r != 0 {
		stack = append(stack, r)
	}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.ar.Get(idx)
		size := int(tx.Read(&n.size))
		if tx.Read(&n.leaf) == 1 {
			for i := 0; i < size; i++ {
				k := tx.Read(&n.keys[i])
				if k >= lo && k <= hi {
					count++
					sum += k
				}
			}
			continue
		}
		for i := 0; i < size; i++ {
			// Child i covers [keys[i], keys[i+1]) (with keys[0] = -inf
			// and keys[size] = +inf); prune children outside [lo, hi].
			if i+1 < size && tx.Read(&n.keys[i+1]) <= lo {
				continue // entirely below lo
			}
			if i >= 1 && tx.Read(&n.keys[i]) > hi {
				break // this and all later children are above hi
			}
			stack = append(stack, tx.Read(&n.vals[i]))
		}
	}
	return count, sum
}

// SizeTx implements ds.Map.
func (t *Tree) SizeTx(tx stm.Txn) int {
	count := 0
	stack := make([]uint64, 0, walkStack)
	if r := tx.Read(&t.root); r != 0 {
		stack = append(stack, r)
	}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.ar.Get(idx)
		size := int(tx.Read(&n.size))
		if tx.Read(&n.leaf) == 1 {
			count += size
			continue
		}
		for i := 0; i < size; i++ {
			stack = append(stack, tx.Read(&n.vals[i]))
		}
	}
	return count
}

// VisitTx implements ds.Visitor: an in-order walk of [lo, hi].
func (t *Tree) VisitTx(tx stm.Txn, lo, hi uint64, fn func(key, val uint64)) {
	if r := tx.Read(&t.root); r != 0 {
		t.visitRec(tx, r, lo, hi, fn)
	}
}

func (t *Tree) visitRec(tx stm.Txn, idx, lo, hi uint64, fn func(key, val uint64)) {
	n := t.ar.Get(idx)
	size := int(tx.Read(&n.size))
	if tx.Read(&n.leaf) == 1 {
		for i := 0; i < size; i++ {
			k := tx.Read(&n.keys[i])
			if k >= lo && k <= hi {
				fn(k, tx.Read(&n.vals[i]))
			}
		}
		return
	}
	for i := 0; i < size; i++ {
		if i+1 < size && tx.Read(&n.keys[i+1]) <= lo {
			continue
		}
		if i >= 1 && tx.Read(&n.keys[i]) > hi {
			break
		}
		t.visitRec(tx, tx.Read(&n.vals[i]), lo, hi, fn)
	}
}
