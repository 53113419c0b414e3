// Package avl implements the transactional internal AVL tree of the paper's
// evaluation: keys live in every node, inserts and deletes rebalance with
// single/double rotations, and deletion of a two-child node swaps with the
// successor. All synchronization is delegated to the TM, so the sequential
// textbook algorithm is used verbatim inside transactions.
package avl

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

type node struct {
	key    stm.Word
	val    stm.Word
	left   stm.Word // arena index; 0 = none
	right  stm.Word
	height stm.Word
}

// walkStack sizes RangeTx's and SizeTx's traversal stacks: a walk holds
// about one entry per level, so 64 keeps any AVL tree's walk off the heap
// (a deeper walk's append moves it there, correctly).
const walkStack = 64

// Tree is a transactional internal AVL tree.
type Tree struct {
	root stm.Word
	ar   *arena.Arena[node]
}

// New creates an empty tree with a capacity hint.
func New(capacity int) *Tree {
	return &Tree{ar: arena.New[node](capacity)}
}

func (t *Tree) height(tx stm.Txn, idx uint64) uint64 {
	if idx == 0 {
		return 0
	}
	return tx.Read(&t.ar.Get(idx).height)
}

// SearchTx implements ds.Map.
func (t *Tree) SearchTx(tx stm.Txn, key uint64) (uint64, bool) {
	idx := tx.Read(&t.root)
	for idx != 0 {
		n := t.ar.Get(idx)
		k := tx.Read(&n.key)
		switch {
		case key == k:
			return tx.Read(&n.val), true
		case key < k:
			idx = tx.Read(&n.left)
		default:
			idx = tx.Read(&n.right)
		}
	}
	return 0, false
}

// fix recomputes idx's height and applies rotations, returning the index of
// the subtree's (possibly new) root.
func (t *Tree) fix(tx stm.Txn, idx uint64) uint64 {
	n := t.ar.Get(idx)
	l := tx.Read(&n.left)
	r := tx.Read(&n.right)
	hl, hr := t.height(tx, l), t.height(tx, r)
	h := max(hl, hr) + 1
	if tx.Read(&n.height) != h {
		tx.Write(&n.height, h)
	}
	switch {
	case hl > hr+1:
		ln := t.ar.Get(l)
		if t.height(tx, tx.Read(&ln.left)) < t.height(tx, tx.Read(&ln.right)) {
			// Left-right: rotate the left child left first.
			tx.Write(&n.left, t.rotateLeft(tx, l))
		}
		return t.rotateRight(tx, idx)
	case hr > hl+1:
		rn := t.ar.Get(r)
		if t.height(tx, tx.Read(&rn.right)) < t.height(tx, tx.Read(&rn.left)) {
			tx.Write(&n.right, t.rotateRight(tx, r))
		}
		return t.rotateLeft(tx, idx)
	}
	return idx
}

// rotateLeft rotates idx's subtree left and returns its new root.
func (t *Tree) rotateLeft(tx stm.Txn, idx uint64) uint64 {
	n := t.ar.Get(idx)
	rIdx := tx.Read(&n.right)
	r := t.ar.Get(rIdx)
	tx.Write(&n.right, tx.Read(&r.left))
	tx.Write(&r.left, idx)
	t.refreshHeight(tx, idx)
	t.refreshHeight(tx, rIdx)
	return rIdx
}

// rotateRight rotates idx's subtree right and returns its new root.
func (t *Tree) rotateRight(tx stm.Txn, idx uint64) uint64 {
	n := t.ar.Get(idx)
	lIdx := tx.Read(&n.left)
	l := t.ar.Get(lIdx)
	tx.Write(&n.left, tx.Read(&l.right))
	tx.Write(&l.right, idx)
	t.refreshHeight(tx, idx)
	t.refreshHeight(tx, lIdx)
	return lIdx
}

func (t *Tree) refreshHeight(tx stm.Txn, idx uint64) {
	n := t.ar.Get(idx)
	h := max(t.height(tx, tx.Read(&n.left)), t.height(tx, tx.Read(&n.right))) + 1
	if tx.Read(&n.height) != h {
		tx.Write(&n.height, h)
	}
}

// InsertTx implements ds.Map.
func (t *Tree) InsertTx(tx stm.Txn, key, val uint64) bool {
	newRoot, inserted := t.insertRec(tx, tx.Read(&t.root), key, val)
	if newRoot != tx.Read(&t.root) {
		tx.Write(&t.root, newRoot)
	}
	return inserted
}

func (t *Tree) insertRec(tx stm.Txn, idx, key, val uint64) (uint64, bool) {
	if idx == 0 {
		shard := int(key)
		ni := t.ar.Alloc(shard)
		tx.OnAbort(t.ar, shard, ni)
		n := t.ar.Get(ni)
		tx.Write(&n.key, key)
		tx.Write(&n.val, val)
		tx.Write(&n.left, 0)
		tx.Write(&n.right, 0)
		tx.Write(&n.height, 1)
		return ni, true
	}
	n := t.ar.Get(idx)
	k := tx.Read(&n.key)
	switch {
	case key == k:
		return idx, false
	case key < k:
		sub, ins := t.insertRec(tx, tx.Read(&n.left), key, val)
		if !ins {
			return idx, false
		}
		tx.Write(&n.left, sub)
		return t.fix(tx, idx), true
	default:
		sub, ins := t.insertRec(tx, tx.Read(&n.right), key, val)
		if !ins {
			return idx, false
		}
		tx.Write(&n.right, sub)
		return t.fix(tx, idx), true
	}
}

// DeleteTx implements ds.Map.
func (t *Tree) DeleteTx(tx stm.Txn, key uint64) bool {
	newRoot, deleted := t.deleteRec(tx, tx.Read(&t.root), key)
	if deleted {
		tx.Write(&t.root, newRoot)
	}
	return deleted
}

func (t *Tree) deleteRec(tx stm.Txn, idx, key uint64) (uint64, bool) {
	if idx == 0 {
		return 0, false
	}
	n := t.ar.Get(idx)
	k := tx.Read(&n.key)
	switch {
	case key < k:
		sub, del := t.deleteRec(tx, tx.Read(&n.left), key)
		if !del {
			return idx, false
		}
		tx.Write(&n.left, sub)
		return t.fix(tx, idx), true
	case key > k:
		sub, del := t.deleteRec(tx, tx.Read(&n.right), key)
		if !del {
			return idx, false
		}
		tx.Write(&n.right, sub)
		return t.fix(tx, idx), true
	}
	// Found the node.
	l, r := tx.Read(&n.left), tx.Read(&n.right)
	if l == 0 || r == 0 {
		tx.Free(t.ar, int(key), idx)
		return max(l, r), true // splice in the one child, or nothing
	}
	// Two children: copy the successor (min of right subtree) into this
	// node, then delete the successor from the right subtree.
	succIdx := r
	for {
		sn := t.ar.Get(succIdx)
		sl := tx.Read(&sn.left)
		if sl == 0 {
			break
		}
		succIdx = sl
	}
	sn := t.ar.Get(succIdx)
	sk := tx.Read(&sn.key)
	sv := tx.Read(&sn.val)
	sub, _ := t.deleteRec(tx, r, sk)
	tx.Write(&n.key, sk)
	tx.Write(&n.val, sv)
	tx.Write(&n.right, sub)
	return t.fix(tx, idx), true
}

// RangeTx implements ds.Map: pruned in-order traversal of [lo, hi].
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
		k := tx.Read(&n.key)
		if k >= lo && k <= hi {
			count++
			sum += k
		}
		if k > lo {
			if l := tx.Read(&n.left); l != 0 {
				stack = append(stack, l)
			}
		}
		if k < hi {
			if r := tx.Read(&n.right); r != 0 {
				stack = append(stack, r)
			}
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
		count++
		if l := tx.Read(&n.left); l != 0 {
			stack = append(stack, l)
		}
		if r := tx.Read(&n.right); r != 0 {
			stack = append(stack, r)
		}
	}
	return count
}

// VisitTx implements ds.Visitor: an in-order walk of [lo, hi].
func (t *Tree) VisitTx(tx stm.Txn, lo, hi uint64, fn func(key, val uint64)) {
	t.visitRec(tx, tx.Read(&t.root), lo, hi, fn)
}

func (t *Tree) visitRec(tx stm.Txn, idx, lo, hi uint64, fn func(key, val uint64)) {
	if idx == 0 {
		return
	}
	n := t.ar.Get(idx)
	k := tx.Read(&n.key)
	if k > lo {
		t.visitRec(tx, tx.Read(&n.left), lo, hi, fn)
	}
	if k >= lo && k <= hi {
		fn(k, tx.Read(&n.val))
	}
	if k < hi {
		t.visitRec(tx, tx.Read(&n.right), lo, hi, fn)
	}
}
