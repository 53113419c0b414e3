package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRingConcurrentScan is the torn-slot and wraparound test for the one
// seqlock ring under Recorder and Tracer: four writers lap a 64-slot ring
// many times while a reader scans it. Every entry that survives the
// seq-before/seq-after check must be exactly what one writer published (all
// seven words derive from the first), in strictly increasing seq order, and
// never more than one ring's worth. (Without the CAS that claims a slot, two
// writers a full lap apart interleave their words under one seq, and this
// test sees it within a second on two cores.)
func TestRingConcurrentScan(t *testing.T) {
	r := newRing(50) // rounds up to 64
	if len(r.slots) != 64 {
		t.Fatalf("ring of 50 has %d slots, want 64", len(r.slots))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := uint64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				var words [ringWords]uint64
				for j := range words {
					words[j] = i * uint64(j+1)
				}
				r.publish(words)
			}
		}()
	}
	check := func(entries []ringEntry) {
		if len(entries) > len(r.slots) {
			t.Errorf("scan returned %d entries from %d slots", len(entries), len(r.slots))
		}
		for i, e := range entries {
			if i > 0 && e.seq <= entries[i-1].seq {
				t.Errorf("scan not in seq order: %d after %d", e.seq, entries[i-1].seq)
			}
			for j, v := range e.w {
				if v != e.w[0]*uint64(j+1) {
					t.Errorf("torn entry leaked: seq %d words %v", e.seq, e.w)
					break
				}
			}
		}
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		check(r.scan())
	}
	close(stop)
	wg.Wait()

	// A writer lapped mid-publish drops its entry, so the slots may hold a
	// few older survivors now; one uncontended lap must leave exactly the
	// newest len(slots) entries.
	if r.published() <= uint64(len(r.slots)) {
		t.Fatalf("only %d entries published: the ring never wrapped", r.published())
	}
	for i := range r.slots {
		r.publish([ringWords]uint64{uint64(i), 2 * uint64(i), 3 * uint64(i), 4 * uint64(i), 5 * uint64(i), 6 * uint64(i), 7 * uint64(i)})
	}
	entries := r.scan()
	check(entries)
	n := r.published()
	if len(entries) != len(r.slots) || entries[0].seq != n-uint64(len(r.slots))+1 || entries[len(entries)-1].seq != n {
		t.Fatalf("after %d publishes scan holds %d entries [%d, %d], want the newest %d",
			n, len(entries), entries[0].seq, entries[len(entries)-1].seq, len(r.slots))
	}
}
