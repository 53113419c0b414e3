package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a concurrent log-linear latency histogram (16 sub-buckets per
// power of two, linear below 16ns): relative error ≤ 1/16 per sample,
// fixed memory, lock-free allocation-free recording. Quantiles report the
// recorded bucket's upper bound, so tails round pessimistically. Promoted
// from internal/server/client (PR 7) so the server, replica, and
// dashboards share one implementation.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
}

const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = (64-histSubBits)*histSub + histSub
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	sub := (v >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)<<histSubBits + int(sub)
}

// histLow returns the lowest value mapping into bucket i. For
// i == histBuckets (one past the top bucket, i.e. the upper bound reported
// for a sample near MaxUint64) the true bound would be 2^64, which
// overflows uint64 — saturate instead of wrapping to 0.
func histLow(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	block := uint(i >> histSubBits)
	exp := block + histSubBits - 1
	if exp >= 64 {
		return math.MaxUint64
	}
	return 1<<exp + uint64(i&(histSub-1))<<(exp-histSubBits)
}

// Record adds one sample.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))].Add(1)
	h.n.Add(1)
}

// RecordNs adds one sample given in nanoseconds.
func (h *Hist) RecordNs(ns uint64) {
	h.counts[histBucket(ns)].Add(1)
	h.n.Add(1)
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n.Load() }

// HistSnapshot is the quantile summary a Hist contributes to a registry
// Snapshot. Quantile fields are nanoseconds (bucket upper bounds).
type HistSnapshot struct {
	Count uint64 `json:"count"`
	P50   int64  `json:"p50_ns"`
	P90   int64  `json:"p90_ns"`
	P99   int64  `json:"p99_ns"`
	P999  int64  `json:"p999_ns"`
	Max   int64  `json:"max_ns"`
}

// Snapshot summarizes the histogram. Samples recorded concurrently may or
// may not be included, but the bucket image is captured once and every
// quantile is computed from that one image, so the reported quantiles are
// mutually consistent (p50 ≤ p90 ≤ p99 ≤ p999 ≤ max) even mid-write —
// walking the live buckets per quantile lets concurrent low-bucket arrivals
// cross a high quantile's target early and invert the tail.
func (h *Hist) Snapshot() HistSnapshot {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	quantile := func(q float64) int64 {
		target := uint64(q * float64(total))
		if target >= total {
			target = total - 1
		}
		var seen uint64
		for i, c := range counts {
			if c == 0 {
				continue
			}
			seen += c
			if seen > target {
				return int64(histLow(i + 1))
			}
		}
		return 0
	}
	snap := HistSnapshot{Count: total}
	if total == 0 {
		return snap
	}
	snap.P50 = quantile(0.50)
	snap.P90 = quantile(0.90)
	snap.P99 = quantile(0.99)
	snap.P999 = quantile(0.999)
	for i := histBuckets - 1; i >= 0; i-- {
		if counts[i] != 0 {
			snap.Max = int64(histLow(i + 1))
			break
		}
	}
	return snap
}
