// Package sim is a discrete-event simulator for priority-type cluster
// computing systems: multi-class Poisson arrivals, multi-server stations with
// FCFS / non-preemptive / preemptive-resume priority scheduling, DVFS energy
// accounting, and replication-based output analysis. It is the paper's C5
// substrate: every analytical quantity in internal/cluster is validated
// against this simulator.
package sim

import (
	"math"

	"clusterq/internal/queueing"
)

// RNG is a xoshiro256++ pseudo-random generator with SplitMix64 seeding:
// fast, high quality, and deterministic across platforms — replication seeds
// are simple integers.
type RNG struct {
	s [4]uint64
}

// NewRNG seeds a generator; any seed (including 0) is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed into the state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponential variate with the given rate (> 0).
func (r *RNG) Exp(rate float64) float64 {
	// 1−U ∈ (0, 1] avoids log(0).
	return -math.Log(1-r.Float64()) / rate
}

// Split derives an independent generator (for per-station or per-class
// streams) from the current one.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Sampler draws service (work) samples from a distribution.
type Sampler interface {
	Sample(r *RNG) float64
	// Mean returns the distribution mean, for verification.
	Mean() float64
}

type expSampler struct{ mean float64 }

func (s expSampler) Sample(r *RNG) float64 { return r.Exp(1 / s.mean) }
func (s expSampler) Mean() float64         { return s.mean }

type detSampler struct{ v float64 }

func (s detSampler) Sample(*RNG) float64 { return s.v }
func (s detSampler) Mean() float64       { return s.v }

type erlangSampler struct {
	k    int
	rate float64 // per-stage rate = k/mean
}

func (s erlangSampler) Sample(r *RNG) float64 {
	var sum float64
	for i := 0; i < s.k; i++ {
		sum += r.Exp(s.rate)
	}
	return sum
}
func (s erlangSampler) Mean() float64 { return float64(s.k) / s.rate }

type hyperSampler struct {
	p      float64
	m1, m2 float64
}

func (s hyperSampler) Sample(r *RNG) float64 {
	if r.Float64() < s.p {
		return r.Exp(1 / s.m1)
	}
	return r.Exp(1 / s.m2)
}
func (s hyperSampler) Mean() float64 { return s.p*s.m1 + (1-s.p)*s.m2 }

// SamplerFor builds a variate sampler matching a queueing.ServiceDist: the
// simulator draws from exactly the distribution family the analytical model
// assumes, so discrepancies measure the *network* approximation, not a
// distribution mismatch.
func SamplerFor(d queueing.ServiceDist) Sampler {
	switch t := d.(type) {
	case queueing.Exponential:
		return expSampler{mean: t.M}
	case queueing.Deterministic:
		return detSampler{v: t.M}
	case queueing.Erlang:
		return erlangSampler{k: t.K, rate: float64(t.K) / t.M}
	case queueing.HyperExp:
		return hyperSampler{p: t.P, m1: t.M1, m2: t.M2}
	default:
		// Unknown families fall back to an exponential with the same
		// mean — documented, conservative, and exercised in tests.
		return expSampler{mean: d.Mean()}
	}
}
