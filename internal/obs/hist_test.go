package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Count() != 0 {
		t.Fatalf("Count = %d, want 0", h.Count())
	}
	if snap := h.Snapshot(); snap != (HistSnapshot{}) {
		t.Fatalf("empty snapshot = %+v, want zeros", snap)
	}
}

func TestHistOneSample(t *testing.T) {
	var h Hist
	h.Record(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
	// Every quantile of a single sample reports the same bucket's upper
	// bound, within the histogram's 1/16 relative error.
	snap := h.Snapshot()
	for _, got := range []int64{snap.P50, snap.P90, snap.P99, snap.P999, snap.Max} {
		if d := time.Duration(got); d < 100*time.Microsecond || d > 100*time.Microsecond*17/16+1 {
			t.Fatalf("snapshot %+v: quantile %v, want ~100µs (≤ +1/16)", snap, d)
		}
	}
}

func TestHistNegativeClampsToZero(t *testing.T) {
	var h Hist
	h.Record(-time.Second)
	if got := h.Snapshot().P50; got != 1 {
		t.Fatalf("p50 after negative sample = %dns, want 1ns (bucket-0 upper bound)", got)
	}
}

func TestHistOverflowBucket(t *testing.T) {
	var h Hist
	h.RecordNs(math.MaxUint64)
	// The top bucket's reported upper bound must saturate at MaxUint64,
	// not wrap around to something tiny (1<<64 == 0).
	if got := uint64(h.Snapshot().Max); got != math.MaxUint64 {
		t.Fatalf("Max of MaxUint64 sample = %d, want MaxUint64", got)
	}
	// A sample one bucket below the top must not be affected.
	var h2 Hist
	h2.RecordNs(1 << 62)
	if got := uint64(h2.Snapshot().Max); got == math.MaxUint64 || got < 1<<62 {
		t.Fatalf("Max of 2^62 sample = %d, want (2^62, MaxUint64)", got)
	}
}

func TestHistBucketRoundTrip(t *testing.T) {
	// histLow(i) must land back in bucket i, and histLow(i+1) must be the
	// smallest value of the next bucket, across the full index range.
	for i := 0; i < histBuckets; i++ {
		lo := histLow(i)
		if got := histBucket(lo); got != i {
			t.Fatalf("histBucket(histLow(%d)=%d) = %d", i, lo, got)
		}
		hi := histLow(i + 1)
		if hi <= lo {
			t.Fatalf("histLow not monotone at %d: %d -> %d", i, lo, hi)
		}
		if i < histBuckets-1 {
			if got := histBucket(hi); got != i+1 {
				t.Fatalf("histBucket(histLow(%d)=%d) = %d, want %d", i+1, hi, got, i+1)
			}
		}
	}
	if histLow(histBuckets) != math.MaxUint64 {
		t.Fatalf("histLow(top+1) = %d, want MaxUint64", histLow(histBuckets))
	}
}

func TestHistQuantileSkewed(t *testing.T) {
	h := new(Hist)
	// 1000 samples: 990 at ~1ms, 10 at ~100ms. p50 must sit in the 1ms
	// bucket's neighborhood, p999 in the 100ms one.
	for i := 0; i < 990; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := h.Snapshot()
	p50, p999 := time.Duration(snap.P50), time.Duration(snap.P999)
	if p50 < time.Millisecond || p50 > time.Millisecond*17/16+1 {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p999 < 100*time.Millisecond || p999 > 100*time.Millisecond*17/16+1 {
		t.Fatalf("p999 = %v, want ~100ms", p999)
	}
}

func TestHistConcurrentRecordSnapshot(t *testing.T) {
	// Record from several goroutines while snapshotting continuously;
	// under -race this exercises the lock-free paths, and the final
	// counts must be exact once writers stop.
	var h Hist
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := h.Snapshot()
			if snap.P999 < snap.P50 {
				t.Errorf("snapshot quantiles inverted: %+v", snap)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(time.Duration(i%1000) * time.Microsecond)
			}
		}(w)
	}
	for h.Count() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d", got, writers*perWriter)
	}
	snap := h.Snapshot()
	if snap.Count != writers*perWriter {
		t.Fatalf("snapshot Count = %d, want %d", snap.Count, writers*perWriter)
	}
	if snap.Max > int64(2*time.Millisecond) {
		t.Fatalf("Max = %v, larger than any recorded sample", time.Duration(snap.Max))
	}
}
