package ebr

import (
	"sync"
	"sync/atomic"
	"testing"
)

// tally is a Releaser that counts the releases it performs and keeps the
// last one's slot.
type tally struct {
	n     atomic.Int64
	shard int
	idx   uint64
}

func (c *tally) Release(shard int, idx uint64) {
	c.n.Add(1)
	c.shard, c.idx = shard, idx
}

func TestRetireRunsAfterGracePeriod(t *testing.T) {
	d := NewDomain()
	h := d.Register()
	var c tally
	h.Retire(Release{&c, 3, 17})
	if c.n.Load() != 0 {
		t.Fatal("retire ran immediately")
	}
	// Two advances = one grace period.
	d.Advance()
	d.Advance()
	h.Collect()
	if c.n.Load() != 1 || c.shard != 3 || c.idx != 17 {
		t.Fatalf("after grace period: %d releases, last (%d, %d); want 1, (3, 17)", c.n.Load(), c.shard, c.idx)
	}
}

func TestPinBlocksAdvance(t *testing.T) {
	d := NewDomain()
	h1 := d.Register()
	h2 := d.Register()
	h1.Pin()
	e := d.Epoch()
	if !d.Advance() {
		t.Fatal("advance blocked although pinned handle announced current epoch")
	}
	// h1 is still announcing epoch e; the next advance must fail.
	if d.Advance() {
		t.Fatal("advance succeeded past a pinned handle")
	}
	if d.Epoch() != e+1 {
		t.Fatalf("epoch=%d want %d", d.Epoch(), e+1)
	}
	h1.Unpin()
	if !d.Advance() {
		t.Fatal("advance failed after unpin")
	}
	_ = h2
}

func TestPinnedReaderProtectsRetiree(t *testing.T) {
	d := NewDomain()
	reader := d.Register()
	writer := d.Register()

	reader.Pin() // reader enters critical section
	var c tally
	writer.Retire(Release{&c, 0, 1})
	// No matter how hard the writer pushes, the object survives while
	// the reader stays pinned.
	for i := 0; i < 100; i++ {
		d.Advance()
		writer.Collect()
	}
	if c.n.Load() != 0 {
		t.Fatal("object freed while a pre-retire reader was pinned")
	}
	reader.Unpin()
	d.Advance()
	d.Advance()
	writer.Collect()
	if c.n.Load() != 1 {
		t.Fatal("object never freed after reader unpinned")
	}
}

func TestNestedPin(t *testing.T) {
	d := NewDomain()
	h := d.Register()
	h.Pin()
	h.Pin()
	h.Unpin()
	if !h.Pinned() {
		t.Fatal("nested pin collapsed early")
	}
	h.Unpin()
	if h.Pinned() {
		t.Fatal("unpin imbalance")
	}
}

func TestUnregisterAdoptsLimbo(t *testing.T) {
	d := NewDomain()
	h := d.Register()
	var c tally
	for i := 0; i < 5; i++ {
		h.Retire(Release{&c, 0, uint64(i + 1)})
	}
	h.Unregister()
	other := d.Register()
	for i := 0; i < 4; i++ {
		d.Advance()
	}
	_ = other
	if got := c.n.Load(); got != 5 {
		t.Fatalf("orphaned retires ran %d/5 times", got)
	}
}

func TestDrainRunsEverything(t *testing.T) {
	d := NewDomain()
	h := d.Register()
	var c tally
	for i := 0; i < 7; i++ {
		h.Retire(Release{&c, 0, uint64(i + 1)})
	}
	d.Drain()
	if got := c.n.Load(); got != 7 {
		t.Fatalf("drain ran %d/7 retires", got)
	}
}

// reclaimProbe is a closure-free retiree: each Reclaim consumes one
// requested grace period; the last one records the reclamation.
type reclaimProbe struct {
	RetireLink
	graces   int // additional grace periods to request
	reclaims int
	done     bool
}

func (p *reclaimProbe) Reclaim() bool {
	p.reclaims++
	if p.graces > 0 {
		p.graces--
		return true
	}
	p.done = true
	return false
}

func TestRetireNodeRunsAfterGracePeriod(t *testing.T) {
	d := NewDomain()
	h := d.Register()
	p := &reclaimProbe{}
	h.RetireNode(p)
	if p.done {
		t.Fatal("node reclaimed immediately")
	}
	d.Advance()
	h.Collect()
	if p.done {
		t.Fatal("node reclaimed after a single advance")
	}
	d.Advance()
	h.Collect()
	if !p.done {
		t.Fatal("node not reclaimed after its grace period")
	}
}

func TestRetireNodeSecondGracePeriod(t *testing.T) {
	d := NewDomain()
	h := d.Register()
	p := &reclaimProbe{graces: 1}
	h.RetireNode(p)
	d.Advance()
	d.Advance()
	h.Collect()
	if p.reclaims != 1 || p.done {
		t.Fatalf("after one grace period: reclaims=%d done=%v, want 1/false (re-retired)", p.reclaims, p.done)
	}
	// The re-retire put it in the current epoch's bucket: two more
	// advances complete it.
	d.Advance()
	d.Advance()
	h.Collect()
	if !p.done {
		t.Fatal("re-retired node never finished reclamation")
	}
}

func TestPinBlocksRetireNode(t *testing.T) {
	d := NewDomain()
	reader := d.Register()
	writer := d.Register()
	reader.Pin()
	p := &reclaimProbe{}
	writer.RetireNode(p)
	for i := 0; i < 100; i++ {
		d.Advance()
		writer.Collect()
	}
	if p.done {
		t.Fatal("node reclaimed while a pre-retire reader was pinned")
	}
	reader.Unpin()
	d.Advance()
	d.Advance()
	writer.Collect()
	if !p.done {
		t.Fatal("node never reclaimed after reader unpinned")
	}
}

func TestRetireNodeOrderAndBatches(t *testing.T) {
	d := NewDomain()
	h := d.Register()
	// More nodes than advanceEvery, interleaved with slot releases,
	// across several epochs; everything must reclaim exactly once by Drain.
	const n = 3*advanceEvery + 7
	probes := make([]*reclaimProbe, n)
	var c tally
	for i := range probes {
		probes[i] = &reclaimProbe{}
		h.RetireNode(probes[i])
		if i%3 == 0 {
			h.Retire(Release{&c, 0, uint64(i + 1)})
		}
	}
	d.Drain()
	for i, p := range probes {
		if !p.done || p.reclaims != 1 {
			t.Fatalf("probe %d: done=%v reclaims=%d, want true/1", i, p.done, p.reclaims)
		}
	}
	if want := int64(n+2) / 3; c.n.Load() != want {
		t.Fatalf("releases ran %d/%d times", c.n.Load(), want)
	}
}

func TestUnregisterAdoptsNodes(t *testing.T) {
	d := NewDomain()
	h := d.Register()
	p := &reclaimProbe{graces: 1}
	h.RetireNode(p)
	h.Unregister()
	for i := 0; i < 6; i++ {
		d.Advance()
	}
	if !p.done {
		t.Fatalf("orphaned node not reclaimed (reclaims=%d)", p.reclaims)
	}
	if p.reclaims != 2 {
		t.Fatalf("orphaned two-phase node reclaimed %d times, want 2", p.reclaims)
	}
}

func TestConcurrentRetireStress(t *testing.T) {
	d := NewDomain()
	const goroutines = 4
	const perG = 2000
	var freed [goroutines]tally
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := d.Register()
			defer h.Unregister()
			for i := 0; i < perG; i++ {
				h.Pin()
				h.Retire(Release{&freed[g], g, uint64(i + 1)})
				h.Unpin()
			}
		}(g)
	}
	wg.Wait()
	d.Drain()
	total := 0
	for i := range freed {
		total += int(freed[i].n.Load())
	}
	if total != goroutines*perG {
		t.Fatalf("freed %d/%d", total, goroutines*perG)
	}
}
