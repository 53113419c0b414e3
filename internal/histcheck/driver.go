package histcheck

import (
	"sync"
	"time"

	"repro/internal/ds"
	"repro/internal/stm"
	"repro/internal/workload"
)

// Profile is one torture operation distribution. Percentages are fractions
// summing to at most 1; the remainder is searches. Small key ranges are
// deliberate: they force real contention and keep the checker's abstract
// state small.
type Profile struct {
	Name      string
	InsertPct float64
	DeletePct float64
	RangePct  float64
	SizePct   float64
	RangeSpan uint64 // max width of a range query
	KeyRange  uint64 // keys drawn from [1, KeyRange]
	Zipf      bool   // zipf-skewed (theta 0.9, scrambled) instead of uniform
}

// Profiles returns the built-in torture profiles: a balanced mix, a
// zipf-skewed mix, range- and size-query-heavy mixes (the paper's versioned
// queries), and an insert/delete churn mix.
func Profiles() []Profile {
	return []Profile{
		{Name: "mixed", InsertPct: 0.25, DeletePct: 0.25, RangePct: 0.10, SizePct: 0.05, RangeSpan: 16, KeyRange: 64},
		{Name: "zipf", InsertPct: 0.25, DeletePct: 0.25, RangePct: 0.10, SizePct: 0.05, RangeSpan: 16, KeyRange: 128, Zipf: true},
		{Name: "range-heavy", InsertPct: 0.15, DeletePct: 0.15, RangePct: 0.40, SizePct: 0.05, RangeSpan: 32, KeyRange: 64},
		{Name: "size-heavy", InsertPct: 0.20, DeletePct: 0.20, RangePct: 0.05, SizePct: 0.30, KeyRange: 48},
		{Name: "churn", InsertPct: 0.45, DeletePct: 0.45, RangePct: 0.05, SizePct: 0.05, RangeSpan: 8, KeyRange: 32},
		// Pure point ops on a tiny key space: the hardest contention
		// hammer and, because every op touches one key, the friendliest
		// shape for minimizing and hand-reading a failing history.
		{Name: "points", InsertPct: 0.40, DeletePct: 0.40, KeyRange: 8},
	}
}

// ProfileByName finds a built-in profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// RunHistory drives threads workers, each performing exactly opsPerThread
// operations on m drawn from profile p, recording every completed operation,
// and returns the History (its Ops are ready for Check). Slabs are sized to
// the op count, so nothing is ever dropped.
func RunHistory(sys stm.System, m ds.Map, p Profile, threads, opsPerThread int, seed uint64) *History {
	return RunHistoryFor(sys, m, p, threads, opsPerThread, seed, 0)
}

// RunHistoryFor is the soak-mode driver: workers record operations until d
// elapses, capped at maxOpsPerThread each (the slab size — a worker whose
// slab fills simply stops early, so nothing is ever dropped). d <= 0 means
// no deadline: exactly maxOpsPerThread ops per worker, i.e. RunHistory.
func RunHistoryFor(sys stm.System, m ds.Map, p Profile, threads, maxOpsPerThread int, seed uint64, d time.Duration) *History {
	h := NewHistory(threads, maxOpsPerThread)
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			worker(sys, m, p, h.Recorder(t), maxOpsPerThread, seed^(uint64(t+1)*0x9e3779b97f4a7c15), deadline)
		}(t)
	}
	wg.Wait()
	return h
}

// deadlineStride is how many ops a soak worker runs between deadline
// checks; a stride is microseconds of work, so overshoot is negligible.
const deadlineStride = 32

func worker(sys stm.System, m ds.Map, p Profile, rec *Recorder, ops int, seed uint64, deadline time.Time) {
	th := sys.Register()
	defer th.Unregister()
	r := workload.NewRng(seed)
	var dist workload.KeyDist = workload.Uniform{N: p.KeyRange}
	if p.Zipf {
		dist = workload.NewZipfian(p.KeyRange, 0.9, true)
	}
	for i := 0; i < ops; i++ {
		if !deadline.IsZero() && i%deadlineStride == 0 && time.Now().After(deadline) {
			return
		}
		u := r.Float64()
		key := dist.Draw(r)
		switch {
		case u < p.InsertPct:
			val := r.Next()
			tok := rec.Invoke(Insert, key, val)
			ins, ok := ds.Insert(th, m, key, val)
			if !ok {
				rec.Discard(tok)
				continue
			}
			rec.Return(tok, ins, 0, 0, 0)
		case u < p.InsertPct+p.DeletePct:
			tok := rec.Invoke(Delete, key, 0)
			del, ok := ds.Delete(th, m, key)
			if !ok {
				rec.Discard(tok)
				continue
			}
			rec.Return(tok, del, 0, 0, 0)
		case u < p.InsertPct+p.DeletePct+p.RangePct:
			lo, hi := rangeBounds(r, p, key)
			tok := rec.Invoke(Range, lo, hi)
			count, sum, ok := ds.Range(th, m, lo, hi)
			if !ok {
				rec.Discard(tok)
				continue
			}
			rec.Return(tok, false, 0, count, sum)
		case u < p.InsertPct+p.DeletePct+p.RangePct+p.SizePct:
			tok := rec.Invoke(Size, 0, 0)
			n, ok := ds.Size(th, m)
			if !ok {
				rec.Discard(tok)
				continue
			}
			rec.Return(tok, false, 0, n, 0)
		default:
			tok := rec.Invoke(Search, key, 0)
			v, found, ok := ds.Search(th, m, key)
			if !ok {
				rec.Discard(tok)
				continue
			}
			rec.Return(tok, found, v, 0, 0)
		}
	}
}

// rangeBounds picks range-query bounds around key, mixing in the edge cases
// the checker must also accept: occasional full-range scans (which must
// agree with concurrent size queries) and inverted bounds (lo > hi, always
// empty).
func rangeBounds(r *workload.Rng, p Profile, key uint64) (lo, hi uint64) {
	switch r.Intn(16) {
	case 0: // full range
		return 0, ^uint64(0)
	case 1: // inverted: always (0, 0)
		if key > 1 {
			return key, key - 1
		}
		return 1, 0
	default:
		span := p.RangeSpan
		if span == 0 {
			span = 8
		}
		return key, key + r.Next()%(span+1)
	}
}
