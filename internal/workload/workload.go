// Package workload generates the key streams and operation mixes of the
// paper's evaluation (§5): uniform and Zipfian key access over a fixed key
// range, operation mixes of searches, inserts, deletes and range queries
// (or size queries for the hashmap), dedicated updater threads, and
// time-varying interval schedules (Fig 8).
package workload

import "math"

// Op is one generated operation.
type Op int

const (
	OpSearch Op = iota
	OpInsert
	OpDelete
	OpRange // range query of Mix.RQSize keys (size query on hashmaps)
)

func (o Op) String() string {
	switch o {
	case OpSearch:
		return "search"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return "rq"
	}
}

// Mix is an operation distribution. Percentages are fractions summing to at
// most 1; the remainder is searches.
type Mix struct {
	InsertPct float64
	DeletePct float64
	RQPct     float64
	RQSize    int
}

// Sample draws an operation using u ∈ [0,1).
func (m Mix) Sample(u float64) Op {
	switch {
	case u < m.RQPct:
		return OpRange
	case u < m.RQPct+m.InsertPct:
		return OpInsert
	case u < m.RQPct+m.InsertPct+m.DeletePct:
		return OpDelete
	default:
		return OpSearch
	}
}

// Rng is splitmix64: tiny, fast, and good enough for workload generation.
type Rng struct{ s uint64 }

// NewRng seeds a generator (seed 0 is remapped).
func NewRng(seed uint64) *Rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rng{s: seed}
}

// Next returns the next 64-bit value.
func (r *Rng) Next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *Rng) Float64() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Intn returns a uniform value in [0,n).
func (r *Rng) Intn(n int) int { return int(r.Next() % uint64(n)) }

// KeyDist draws keys from a key space [1, N].
type KeyDist interface {
	// Draw returns the next key.
	Draw(r *Rng) uint64
}

// Uniform draws keys uniformly from [1, N].
type Uniform struct{ N uint64 }

// Draw implements KeyDist.
func (u Uniform) Draw(r *Rng) uint64 { return r.Next()%u.N + 1 }

// Zipfian draws keys from [1, N] with a Zipf distribution of the given
// exponent (the paper uses 0.9, below the s>1 domain of math/rand's Zipf,
// so we implement the YCSB/Gray et al. generator, which supports 0<s<1).
type Zipfian struct {
	n        uint64
	theta    float64
	alpha    float64
	zetan    float64
	eta      float64
	zeta2    float64
	scramble bool
}

// NewZipfian builds a Zipfian distribution over [1, n]. When scramble is
// true the rank order is hashed across the key space (YCSB's "scrambled
// zipfian"), which spreads the hot keys instead of clustering them at the
// low end — matching how a key-value benchmark accesses a tree.
func NewZipfian(n uint64, theta float64, scramble bool) *Zipfian {
	z := &Zipfian{n: n, theta: theta, scramble: scramble}
	z.zetan = zetaStatic(n, theta)
	z.zeta2 = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Draw implements KeyDist.
func (z *Zipfian) Draw(r *Rng) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 1
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 2
	default:
		rank = 1 + uint64(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank > z.n {
		rank = z.n
	}
	if !z.scramble {
		return rank
	}
	// FNV-style scramble into [1, n].
	h := rank * 0xc6a4a7935bd1e995
	h ^= h >> 47
	h *= 0xc6a4a7935bd1e995
	return h%z.n + 1
}

// Phase is one interval of a time-varying workload (paper Fig 8).
type Phase struct {
	// Seconds is the phase duration in harness time units.
	Seconds float64
	// Mix is the worker operation mix during the phase.
	Mix Mix
	// Updaters is the number of dedicated updater threads active.
	Updaters int
}
