// Package extbst implements the transactional external (leaf-oriented)
// binary search tree of the paper's evaluation. All keys live in leaves;
// internal nodes carry routing keys only. Inserts replace a leaf with an
// internal node over two leaves; deletes remove a leaf and splice its
// sibling into the grandparent — the classic external BST shape, with all
// synchronization delegated to the TM.
package extbst

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// node is both internal and leaf: a node is a leaf iff left == 0.
// Internal routing: keys < key go left, keys >= key go right.
type node struct {
	key   stm.Word
	val   stm.Word
	left  stm.Word // arena index; 0 marks a leaf
	right stm.Word
}

// walkStack sizes RangeTx's and SizeTx's traversal stacks: a walk holds
// about one entry per level, so 64 keeps the walk of a randomly built tree
// off the heap (a deeper walk's append moves it there, correctly).
const walkStack = 64

// Tree is a transactional external BST.
type Tree struct {
	root stm.Word // arena index of root; 0 = empty tree
	ar   *arena.Arena[node]
}

// New creates an empty tree with the given capacity hint (leaves +
// internals ≈ 2× keys).
func New(capacity int) *Tree {
	return &Tree{ar: arena.New[node](2 * capacity)}
}

// SearchTx implements ds.Map.
func (t *Tree) SearchTx(tx stm.Txn, key uint64) (uint64, bool) {
	idx := tx.Read(&t.root)
	if idx == 0 {
		return 0, false
	}
	for {
		n := t.ar.Get(idx)
		left := tx.Read(&n.left)
		if left == 0 { // leaf
			if tx.Read(&n.key) == key {
				return tx.Read(&n.val), true
			}
			return 0, false
		}
		if key < tx.Read(&n.key) {
			idx = left
		} else {
			idx = tx.Read(&n.right)
		}
	}
}

func (t *Tree) alloc(tx stm.Txn, shard int) (uint64, *node) {
	idx := t.ar.Alloc(shard)
	tx.OnAbort(t.ar, shard, idx)
	return idx, t.ar.Get(idx)
}

// InsertTx implements ds.Map.
func (t *Tree) InsertTx(tx stm.Txn, key, val uint64) bool {
	rootIdx := tx.Read(&t.root)
	if rootIdx == 0 {
		li, l := t.alloc(tx, int(key))
		tx.Write(&l.key, key)
		tx.Write(&l.val, val)
		tx.Write(&l.left, 0)
		tx.Write(&l.right, 0)
		tx.Write(&t.root, li)
		return true
	}
	// Descend to the leaf, remembering the parent pointer to rewrite.
	ptr := &t.root
	idx := rootIdx
	for {
		n := t.ar.Get(idx)
		left := tx.Read(&n.left)
		if left == 0 {
			break
		}
		if key < tx.Read(&n.key) {
			ptr = &n.left
			idx = left
		} else {
			ptr = &n.right
			idx = tx.Read(&n.right)
		}
	}
	leaf := t.ar.Get(idx)
	lk := tx.Read(&leaf.key)
	if lk == key {
		return false
	}
	// Replace the leaf with internal(min-leaf, max-leaf).
	shard := int(key)
	ni, newLeaf := t.alloc(tx, shard)
	tx.Write(&newLeaf.key, key)
	tx.Write(&newLeaf.val, val)
	tx.Write(&newLeaf.left, 0)
	tx.Write(&newLeaf.right, 0)
	ii, inner := t.alloc(tx, shard)
	if key < lk {
		tx.Write(&inner.key, lk) // route: < lk left, >= lk right
		tx.Write(&inner.left, ni)
		tx.Write(&inner.right, idx)
	} else {
		tx.Write(&inner.key, key)
		tx.Write(&inner.left, idx)
		tx.Write(&inner.right, ni)
	}
	tx.Write(ptr, ii)
	return true
}

// DeleteTx implements ds.Map. Removing a leaf also removes its parent
// internal node, splicing the sibling into the grandparent; both arena
// slots are recycled after a grace period.
func (t *Tree) DeleteTx(tx stm.Txn, key uint64) bool {
	rootIdx := tx.Read(&t.root)
	if rootIdx == 0 {
		return false
	}
	var gpPtr *stm.Word // pointer that holds the parent's index
	var parent *node
	var parentIdx uint64
	ptr := &t.root
	idx := rootIdx
	fromLeft := false
	for {
		n := t.ar.Get(idx)
		left := tx.Read(&n.left)
		if left == 0 {
			if tx.Read(&n.key) != key {
				return false
			}
			shard := int(key)
			leafIdx := idx
			if parent == nil {
				// The leaf is the root.
				tx.Write(&t.root, 0)
				tx.Free(t.ar, shard, leafIdx)
				return true
			}
			// Splice the sibling into the grandparent; leaf and
			// parent both become garbage.
			var sibling uint64
			if fromLeft {
				sibling = tx.Read(&parent.right)
			} else {
				sibling = tx.Read(&parent.left)
			}
			tx.Write(gpPtr, sibling)
			tx.Free(t.ar, shard, leafIdx)
			tx.Free(t.ar, shard, parentIdx)
			return true
		}
		gpPtr = ptr
		parent = n
		parentIdx = idx
		if key < tx.Read(&n.key) {
			ptr = &n.left
			fromLeft = true
			idx = left
		} else {
			ptr = &n.right
			fromLeft = false
			idx = tx.Read(&n.right)
		}
	}
}

// RangeTx implements ds.Map: an in-order traversal pruned to [lo, hi].
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
		left := tx.Read(&n.left)
		k := tx.Read(&n.key)
		if left == 0 {
			if k >= lo && k <= hi {
				count++
				sum += k
			}
			continue
		}
		// Internal: keys < k left, >= k right.
		if lo < k {
			stack = append(stack, left)
		}
		if hi >= k {
			stack = append(stack, tx.Read(&n.right))
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
		left := tx.Read(&n.left)
		if left == 0 {
			count++
			continue
		}
		stack = append(stack, left, tx.Read(&n.right))
	}
	return count
}

// VisitTx implements ds.Visitor: an in-order walk of the leaves in [lo, hi].
func (t *Tree) VisitTx(tx stm.Txn, lo, hi uint64, fn func(key, val uint64)) {
	if r := tx.Read(&t.root); r != 0 {
		t.visitRec(tx, r, lo, hi, fn)
	}
}

func (t *Tree) visitRec(tx stm.Txn, idx, lo, hi uint64, fn func(key, val uint64)) {
	n := t.ar.Get(idx)
	left := tx.Read(&n.left)
	k := tx.Read(&n.key)
	if left == 0 {
		if k >= lo && k <= hi {
			fn(k, tx.Read(&n.val))
		}
		return
	}
	if lo < k {
		t.visitRec(tx, left, lo, hi, fn)
	}
	if hi >= k {
		t.visitRec(tx, tx.Read(&n.right), lo, hi, fn)
	}
}
