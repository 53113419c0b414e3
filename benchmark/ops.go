package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/ds"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/workload"
)

// An op stream is generated from the seed before the clock starts and replayed
// cyclically: the same seed gives byte-identical streams. One op is packed as
// kind<<56 | key.
const (
	opShift  = 56
	keyMask  = 1<<opShift - 1
	streamLn = 1 << 20 // ops per driver goroutine; longer than any cache, short enough to build in set-up
)

func genStream(seed uint64, worker, n int, keyRange uint64, mix workload.Mix) []uint64 {
	rng := workload.NewRng(seed*0x9e3779b97f4a7c15 + uint64(worker+1))
	keys := workload.Uniform{N: keyRange}
	s := make([]uint64, n)
	for i := range s {
		op := mix.Sample(rng.Float64())
		s[i] = uint64(op)<<opShift | keys.Draw(rng)
	}
	return s
}

// streamHash fingerprints streams for the seed-discipline test.
func streamHash(streams ...[]uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range streams {
		for _, v := range s {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// ledger is one driver's record of the inserts and deletes that took effect.
// Because InsertTx/DeleteTx report whether they changed the map, the net
// count and key sum are exact under any interleaving (sums wrap mod 2^64,
// as RangeTx's does).
type ledger struct {
	count int64
	sum   uint64
}

func (l *ledger) inserted(key uint64) { l.count++; l.sum += key }
func (l *ledger) deleted(key uint64)  { l.count--; l.sum -= key }
func (l *ledger) add(o ledger)        { l.count += o.count; l.sum += o.sum }

// checkRange validates one RangeTx result against what any correct map could
// return for [lo, hi]: at most span keys, and a key sum between the count
// smallest and the count largest keys of the span.
func checkRange(lo, hi uint64, count int, keySum uint64) error {
	span := hi - lo + 1
	c := uint64(count)
	if count < 0 || c > span {
		return fmt.Errorf("range [%d,%d]: count %d exceeds span %d", lo, hi, count, span)
	}
	tri := c * (c - 1) / 2
	if c > 0 && (keySum < c*lo+tri || keySum > c*hi-tri) {
		return fmt.Errorf("range [%d,%d]: key sum %d impossible for %d keys", lo, hi, keySum, count)
	}
	return nil
}

// checkLedger compares the map's final full-range (count, keySum) with the
// summed ledgers of everything that ever updated it.
func checkLedger(th stm.Thread, m ds.Map, keyRange uint64, want ledger) error {
	count, sum, ok := ds.Range(th, m, 1, keyRange)
	if !ok {
		return fmt.Errorf("oracle: final range query starved")
	}
	if err := checkRange(1, keyRange, count, sum); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if int64(count) != want.count || sum != want.sum {
		return fmt.Errorf("oracle: map holds (count=%d, keySum=%d), ledgers say (count=%d, keySum=%d)",
			count, sum, want.count, want.sum)
	}
	return nil
}

// exportSorted snapshots the whole map, sorted by key.
func exportSorted(th stm.Thread, m ds.Map) ([]ds.KV, error) {
	pairs, ok := ds.Export(th, m.(ds.Visitor), 1, ^uint64(0))
	if !ok {
		return nil, fmt.Errorf("oracle: export starved")
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	return pairs, nil
}

func samePairs(a, b []ds.KV) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d pairs vs %d pairs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("pair %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// prefill inserts random distinct keys until the map holds n, all drawn from
// the seed, and returns the ledger of what it inserted.
func prefill(th stm.Thread, m ds.Map, seed uint64, n int, keyRange uint64) (ledger, error) {
	rng := workload.NewRng(seed ^ 0x5eed)
	var led ledger
	for led.count < int64(n) {
		k := rng.Next()%keyRange + 1
		ins, ok := ds.Insert(th, m, k, k)
		if !ok {
			return led, fmt.Errorf("prefill: insert starved")
		}
		if ins {
			led.inserted(k)
		}
	}
	return led, nil
}

// quantumOps is the fixed amount of work one in-process timing sample covers:
// that many consecutive ops of one kind. A quantum is long enough (0.15 ms
// and up) that a clock read per op is a small, constant tax, and short enough
// that some quanta of every run fall between the bursts of the machine's
// neighbours.
const quantumOps = 256

// sampler turns a stream of op times into fixed-work timing samples: the mean
// of every `size` consecutive ops.
type sampler struct {
	size int
	ns   int64
	n    int
	out  []float64
}

func newSampler(size int) sampler { return sampler{size: size, out: make([]float64, 0, 1<<14)} }

func (s *sampler) add(ns int64) {
	s.ns += ns
	s.n++
	if s.n == s.size {
		s.out = append(s.out, float64(s.ns)/float64(s.size))
		s.ns, s.n = 0, 0
	}
}

func (s *sampler) reset() { s.ns, s.n, s.out = 0, 0, s.out[:0] }

// player is what every load generator carries, in-process driver or wire
// caller: its op stream, its trace context, the ledger of what it changed and
// its tallies.
type player struct {
	stream []uint64
	pos    int
	t      *tctx
	led    ledger

	reads, updates, failed uint64
	readS, updS            sampler
}

func newPlayer(stream []uint64, readQuantum, updateQuantum int) player {
	return player{stream: stream, readS: newSampler(readQuantum), updS: newSampler(updateQuantum)}
}

// next takes the next op off the stream, which is replayed cyclically.
func (p *player) next() (workload.Op, uint64) {
	op := p.stream[p.pos]
	p.pos++
	if p.pos == len(p.stream) {
		p.pos = 0
	}
	return workload.Op(op >> opShift), op & keyMask
}

// count tallies one finished op and its time.
func (p *player) count(kind workload.Op, ok bool, ns int64) {
	switch {
	case !ok:
		p.failed++
	case kind == workload.OpSearch:
		p.reads++
		p.readS.add(ns)
	default:
		p.updates++
		p.updS.add(ns)
	}
}

// resetTrial clears the per-trial tallies (the ledger and stream position
// carry over).
func (p *player) resetTrial() {
	p.reads, p.updates, p.failed = 0, 0, 0
	p.readS.reset()
	p.updS.reset()
}

// foldInto adds the player's tallies, samples and spans to a trial result.
func (p *player) foldInto(res *trialResult) {
	res.reads += p.reads
	res.updates += p.updates
	res.failed += p.failed
	res.readQ = append(res.readQ, p.readS.out...)
	res.updQ = append(res.updQ, p.updS.out...)
	res.spans = append(res.spans, p.t.spans()...)
}

// driver is one in-process driver goroutine: a player, a registered thread
// and the map it drives.
type driver struct {
	player
	th stm.Thread
	m  ds.Map
	// yields: the driver shares its cores with goroutines of the system under
	// test and yields after every quantum's worth of ops (replica-follow).
	yields bool
	_      [64]byte // keep two drivers' counters off one cache line
}

func newDriver(stream []uint64) *driver {
	return &driver{player: newPlayer(stream, quantumOps, quantumOps)}
}

// step executes the next op of the stream through the ds.* wrappers and
// reports its kind and whether it committed.
func (d *driver) step() (workload.Op, bool) {
	kind, key := d.next()
	d.t.beginOp(kind.String())
	var ok bool
	switch kind {
	case workload.OpInsert:
		var ins bool
		if ins, ok = ds.Insert(d.th, d.m, key, key); ins && ok {
			d.led.inserted(key)
		}
	case workload.OpDelete:
		var del bool
		if del, ok = ds.Delete(d.th, d.m, key); del && ok {
			d.led.deleted(key)
		}
	default:
		_, _, ok = ds.Search(d.th, d.m, key)
	}
	d.t.endOp()
	return kind, ok
}

// run replays the stream until stop is raised, timing each op from the end
// of the one before it.
func (d *driver) run(stop *atomic.Bool) {
	t := nowNs()
	for n := 1; !stop.Load(); n++ {
		kind, ok := d.step()
		now := nowNs()
		d.count(kind, ok, now-t)
		t = now
		if d.yields && n%quantumOps == 0 {
			runtime.Gosched()
			t = nowNs()
		}
	}
}

// mvstmLayer turns a window of TM counters into the per-workload mvstm.*
// metrics.
func mvstmLayer(before, after stm.Stats, out map[string]float64) {
	after.Sub(before)
	commits, aborts := float64(after.Commits), float64(after.Aborts)
	share := func(part uint64, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / whole
	}
	out["mvstm.attempts_per_commit"] = 1 + share(after.Aborts, commits)
	out["mvstm.versioned_commit_share"] = share(after.VersionedCommits, float64(after.ReadOnlyCommits))
	for _, r := range []obs.AbortReason{obs.ReasonLockBusy, obs.ReasonValidation, obs.ReasonVersionGone} {
		out["mvstm.abort_share."+r.String()] = share(after.AbortReasons[r], aborts)
	}
	out["mvstm.mode_switches"] = float64(after.ModeSwitches)
	out["mvstm.addr_versioned"] = float64(after.AddrVersioned)
	out["mvstm.unversionings"] = float64(after.Unversionings)
	out["mvstm.starved"] = float64(after.Starved)
}
