package gclock

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestIncrementMonotonic(t *testing.T) {
	var c Clock
	c.Set(1)
	prev := c.Load()
	for i := 0; i < 100; i++ {
		v := c.Increment()
		if v <= prev {
			t.Fatalf("clock went backwards: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestTickGV4ReturnsUsableVersion(t *testing.T) {
	var c Clock
	c.Set(5)
	v, won := c.TickGV4()
	if v != 6 || !won {
		t.Fatalf("uncontended GV4 tick = %d won=%v want 6 true", v, won)
	}
	if c.Load() != 6 {
		t.Fatalf("clock = %d want 6", c.Load())
	}
}

func TestTickGV4Concurrent(t *testing.T) {
	// GV4's point: concurrent committers may share a tick, but every
	// returned value is a valid commit version (> the pre-tick clock)
	// and the clock never decreases. Each advance has exactly one winner.
	var c Clock
	c.Set(1)
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	mins := make([]uint64, goroutines)
	var wins atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			min := ^uint64(0)
			for i := 0; i < perG; i++ {
				before := c.Load()
				v, won := c.TickGV4()
				if won {
					wins.Add(1)
				}
				if v <= before {
					min = 0 // record violation
					break
				}
				if v < min {
					min = v
				}
			}
			mins[g] = min
		}(g)
	}
	wg.Wait()
	for g, m := range mins {
		if m == 0 {
			t.Fatalf("goroutine %d observed a non-advancing GV4 tick", g)
		}
	}
	final := c.Load()
	if final <= 1 || final > 1+goroutines*perG {
		t.Fatalf("final clock %d outside (1, %d]", final, 1+goroutines*perG)
	}
	if wins.Load() != final-1 {
		t.Fatalf("%d ticks reported won for %d clock advances", wins.Load(), final-1)
	}
}
