// Package rng provides a fast, deterministic pseudo-random number
// generator and the sampling distributions used across the simulator.
//
// All stochastic components of the repository take an explicit *RNG so
// that every graph, search run, and experiment replication is a pure
// function of its seed. Child seeds for independent replications are
// derived with DeriveSeed, which applies a splitmix64-style mix so that
// consecutive stream indices yield statistically independent streams.
//
// The core generator is xoshiro256++ (Blackman & Vigna), seeded through
// splitmix64 per the authors' recommendation. It is not safe for
// concurrent use; create one RNG per goroutine.
package rng

import "math/bits"

// RNG is a xoshiro256++ pseudo-random number generator.
//
// The zero value is not a valid generator; use New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next splitmix64 output.
// It is used for seeding and for deriving independent stream seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed via splitmix64.
// Equal seeds yield identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes the generator in place, exactly as New(seed)
// would, so long-lived scratch state can restart streams without
// allocating a generator per trial.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro256++ requires a state that is not all zero; splitmix64
	// output over four consecutive steps is never all zero, but guard
	// anyway so the invariant is local and obvious.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// DeriveSeed deterministically derives an independent child seed from a
// base seed and a stream index. It is the canonical way to fan a single
// experiment seed out to per-replication seeds.
func DeriveSeed(base, stream uint64) uint64 {
	x := base ^ (stream+1)*0xd1342543de82ef95
	out := splitmix64(&x)
	out ^= splitmix64(&x)
	return out
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Fill overwrites dst with the next len(dst) outputs, exactly the
// values that len(dst) calls to Uint64 would return, and leaves the
// generator in the same state those calls would. It keeps the state in
// locals for the whole loop, so bulk consumers (mori.EventReplay) pay
// no call or memory round trip per draw.
func (r *RNG) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = bits.RotateLeft64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// It uses Lemire's nearly-divisionless bounded rejection method, so the
// result is exactly uniform.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniform integer in [lo, hi]. It panics if lo > hi.
func (r *RNG) IntRange(lo, hi int) int {
	if lo > hi {
		panic("rng: IntRange with lo > hi")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using swap, which must
// exchange the elements at the two given indices.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
