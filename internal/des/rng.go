package des

import (
	"math"
	"math/rand"
	"strconv"
	"time"
)

// RNG derives independent, named pseudo-random streams from a single master
// seed. Every source of randomness in a simulation (MRAI jitter per node,
// processing delay per node, topology generation, destination choice, ...)
// draws from its own named stream, so adding a new consumer of randomness
// never perturbs the values observed by existing ones. This keeps
// experiment results stable across refactorings.
//
// A stream draws math/rand's seeded sequence (alfg.go reproduces the
// generator; the rand.Rand front is the stdlib's) but costs what it draws:
// two allocations, the rand.Rand and a 24 B source, and six modular
// multiplications per number until its 274th; only a stream that gets that
// far seeds a 5 KB register, once, and draws from it as math/rand does. An
// Internet(1000) trial opens 2,000 streams and none of them draws 274
// numbers; OpenN opens a run of them in two allocations, not two each.
type RNG struct {
	seed int64
}

// NewRNG returns a stream factory rooted at the given master seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// Seed returns the master seed the factory was created with.
func (r *RNG) Seed() int64 { return r.seed }

// FNV-1a, 64 bit: the name hash behind every stream seed.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// Stream returns a deterministic *rand.Rand for the given name. Calling
// Stream twice with the same name returns two independent generators with
// identical sequences.
func (r *RNG) Stream(name string) *rand.Rand {
	return r.stream(fnv1a(fnvOffset64, name))
}

// StreamN is Stream(prefix + decimal n) without building the name: the
// per-node streams ("bgp/proc/17") are opened thousands of times a trial.
// It is OpenN of one stream.
func (r *RNG) StreamN(prefix string, n int) *rand.Rand {
	out := make([]rand.Rand, 1)
	r.OpenN(out, prefix, n)
	return &out[0]
}

// OpenN opens StreamN(prefix, first+i) into out[i] for every i. The
// sources behind them are one allocation, so a run of streams costs two
// however long it is, the caller's out included.
func (r *RNG) OpenN(out []rand.Rand, prefix string, first int) {
	srcs := make([]streamSource, len(out))
	h := fnv1a(fnvOffset64, prefix)
	var buf [20]byte // fits MinInt64 with its sign
	for i := range out {
		digits := strconv.AppendInt(buf[:0], int64(first+i), 10)
		srcs[i] = streamSource{x0: normaliseSeed(r.mix(fnv1a(h, string(digits))))}
		out[i] = *rand.New(&srcs[i])
	}
}

func (r *RNG) stream(nameHash uint64) *rand.Rand {
	return rand.New(newStreamSource(r.mix(nameHash)))
}

// mix derives a stream's seed from its name hash and the master seed.
func (r *RNG) mix(nameHash uint64) int64 {
	return int64(nameHash ^ (uint64(r.seed) * 0x9E3779B97F4A7C15))
}

// Uniform returns a duration drawn uniformly from [lo, hi] using rng.
// It is the delay model used throughout the simulator (e.g. the paper's
// U(0.1s, 0.5s) per-message processing time).
func Uniform(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	span := int64(hi - lo)
	if span == math.MaxInt64 {
		// span+1 would overflow; Int63 is already uniform on [0, MaxInt64].
		return lo + time.Duration(rng.Int63())
	}
	return lo + time.Duration(rng.Int63n(span+1))
}

// UniformFactor returns a float64 drawn uniformly from [lo, hi], used for
// multiplicative timer jitter (e.g. MRAI jitter factor in [0.75, 1.0]).
func UniformFactor(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + rng.Float64()*(hi-lo)
}
