package stmtest

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/stm"
)

// listNode is a singly linked list node in an arena, mirroring the paper's
// §4.5 example: t1 reads the whole list while t2 unlinks and frees a suffix.
type listNode struct {
	key  stm.Word
	next stm.Word
}

// buildList creates A→B→C→D and returns the head word and node indices.
func buildList(th stm.Thread, ar *arena.Arena[listNode]) (head *stm.Word, idx [4]uint64) {
	head = &stm.Word{}
	th.Atomic(func(tx stm.Txn) {
		prev := head
		for i := 0; i < 4; i++ {
			n := ar.Alloc(0)
			idx[i] = n
			node := ar.Get(n)
			tx.Write(&node.key, uint64(i+1)*100)
			tx.Write(&node.next, 0)
			tx.Write(prev, n)
			prev = &node.next
		}
	})
	return head, idx
}

// TestReclamationRaceWithEBR reproduces §4.5's scenario and verifies that
// EBR-deferred frees keep doomed readers safe: a read-only traversal races
// removals that retire nodes via Txn.Free, and no traversal ever observes a
// recycled (re-initialized) node, because recycling waits for the reader's
// grace period.
func TestReclamationRaceWithEBR(t *testing.T) {
	for _, f := range All() {
		t.Run(f.Name, func(t *testing.T) {
			sys := f.New()
			defer sys.Close()
			ar := arena.New[listNode](64)
			init := sys.Register()
			head, _ := buildList(init, ar)
			init.Unregister()

			var corrupted atomic.Uint64
			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Reader: repeatedly traverses; keys must always be
			// multiples of 100 (recycled nodes are stamped odd).
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := sys.Register()
				defer th.Unregister()
				for {
					select {
					case <-stop:
						return
					default:
					}
					th.ReadOnly(func(tx stm.Txn) {
						for n := tx.Read(head); n != 0; {
							node := ar.Get(n)
							if tx.Read(&node.key)%100 != 0 {
								corrupted.Add(1)
							}
							n = tx.Read(&node.next)
						}
					})
				}
			}()
			// Mutator: unlink the list's second node, retire it via
			// Txn.Free (EBR), then reinsert a fresh node whose slot
			// may be the recycled one — stamped with an odd key
			// first, then fixed inside the transaction. A reader
			// holding the stale index during the grace period would
			// see the odd stamp only if reclamation were unsafe.
			//
			// The iteration count is bounded by a deadline: on a
			// single-P runtime the mutator is starved, not
			// livelocked. Deferred-clock TMs (DCTL, Multiverse)
			// guarantee each update transaction about one
			// self-conflict abort (commit does not advance the
			// clock, so the released lock version equals the next
			// attempt's read clock), and every abort's
			// backoff (stm.Drive) yields the sole P to the reader, which
			// then runs a full scheduler quantum (~10ms) before
			// preemption. At tens of iterations per second, a
			// fixed count of 3000 blows the 600s suite timeout;
			// the race is exercised just as well by however many
			// iterations fit in the window.
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := sys.Register()
				defer th.Unregister()
				deadline := time.Now().Add(2 * time.Second)
				for i := 0; i < 3000 && time.Now().Before(deadline); i++ {
					th.Atomic(func(tx stm.Txn) {
						first := tx.Read(head)
						if first == 0 {
							return
						}
						fn := ar.Get(first)
						second := tx.Read(&fn.next)
						if second == 0 {
							return
						}
						sn := ar.Get(second)
						tx.Write(&fn.next, tx.Read(&sn.next))
						tx.Free(ar, 0, second)
					})
					th.Atomic(func(tx stm.Txn) {
						n := ar.Alloc(0)
						tx.OnAbort(ar, 0, n)
						node := ar.Get(n)
						tx.Write(&node.key, 300)
						first := tx.Read(head)
						node2 := ar.Get(first)
						tx.Write(&node.next, tx.Read(&node2.next))
						tx.Write(&node2.next, n)
					})
				}
				close(stop)
			}()
			wg.Wait()
			if corrupted.Load() != 0 {
				t.Fatalf("reader observed %d recycled/garbage nodes despite EBR", corrupted.Load())
			}
		})
	}
}

// TestOpacityProbe checks the defining property of opacity: even attempts
// that are DOOMED to abort never observe an inconsistent snapshot. Two
// words are always updated together (x == y); every reader attempt records
// any x != y observation, including attempts that subsequently abort.
func TestOpacityProbe(t *testing.T) {
	for _, f := range All() {
		t.Run(f.Name, func(t *testing.T) {
			sys := f.New()
			defer sys.Close()
			var x, y stm.Word
			var violations atomic.Uint64
			var stop atomic.Bool
			var writerWG, readerWG sync.WaitGroup
			writerWG.Add(1)
			go func() { // writer keeps x == y
				defer writerWG.Done()
				th := sys.Register()
				defer th.Unregister()
				for i := uint64(1); !stop.Load(); i++ {
					th.Atomic(func(tx stm.Txn) {
						tx.Write(&x, i)
						tx.Write(&y, i)
					})
				}
			}()
			for r := 0; r < 2; r++ {
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					th := sys.Register()
					defer th.Unregister()
					for i := 0; i < 4000; i++ {
						th.ReadOnly(func(tx stm.Txn) {
							// The probe runs INSIDE the attempt: a
							// non-opaque TM would let a doomed
							// attempt observe xv != yv before its
							// eventual abort.
							xv := tx.Read(&x)
							yv := tx.Read(&y)
							if xv != yv {
								violations.Add(1)
							}
						})
					}
				}()
			}
			readerWG.Wait()
			stop.Store(true)
			writerWG.Wait()
			if violations.Load() != 0 {
				t.Fatalf("%d inconsistent snapshots observed inside attempts", violations.Load())
			}
		})
	}
}
