package sim

import (
	"fmt"
	"math"
)

// Profile is a time-varying arrival-rate function for one class. The
// simulator generates arrivals by thinning a Poisson stream at MaxRate, so
// RateAt must never exceed MaxRate. Profiles are the workload side of the
// dynamic power management extension: the analytical model covers the
// stationary case, the simulator explores what happens when traffic moves.
type Profile interface {
	// RateAt returns the instantaneous arrival rate at time t ≥ 0.
	RateAt(t float64) float64
	// MaxRate returns a finite upper bound on RateAt over all t.
	MaxRate() float64
}

// constantRate is the stationary Poisson profile (the paper's model).
type constantRate float64

// RateAt implements Profile.
func (c constantRate) RateAt(float64) float64 { return float64(c) }

// MaxRate implements Profile.
func (c constantRate) MaxRate() float64 { return float64(c) }

// Sinusoid is a smooth diurnal profile:
//
//	λ(t) = Mean + Amplitude · sin(2π(t+Phase)/Period).
//
// Amplitude must not exceed Mean (rates stay non-negative).
type Sinusoid struct {
	Mean, Amplitude, Period, Phase float64
}

// NewSinusoid validates and returns the profile. Every argument must be
// finite: an infinite rate would put every arrival at t = 0.
func NewSinusoid(mean, amplitude, period float64) (Sinusoid, error) {
	s := Sinusoid{Mean: mean, Amplitude: amplitude, Period: period}
	if !s.valid() {
		return Sinusoid{}, fmt.Errorf("sim: invalid sinusoid mean=%g amp=%g period=%g", mean, amplitude, period)
	}
	return s, nil
}

// valid is NewSinusoid's check, which Options.validate also applies to a
// literal, plus a finite Phase: a NaN phase makes RateAt NaN everywhere,
// and thinning then accepts every candidate.
func (s Sinusoid) valid() bool {
	return s.Mean >= 0 && !math.IsInf(s.Mean, 1) && s.Amplitude >= 0 && s.Amplitude <= s.Mean &&
		s.Period > 0 && !math.IsInf(s.Period, 1) && !math.IsNaN(s.Phase) && !math.IsInf(s.Phase, 0)
}

// RateAt implements Profile.
func (s Sinusoid) RateAt(t float64) float64 {
	return s.Mean + s.Amplitude*math.Sin(2*math.Pi*(t+s.Phase)/s.Period)
}

// MaxRate implements Profile.
func (s Sinusoid) MaxRate() float64 { return s.Mean + s.Amplitude }

// SquareWave is the day/night profile: rate High for the first
// HighFraction of every period, Low for the rest.
type SquareWave struct {
	Low, High, Period, HighFraction float64
}

// NewSquareWave validates and returns the profile. Every argument must be
// finite, like NewSinusoid's.
func NewSquareWave(low, high, period, highFraction float64) (SquareWave, error) {
	s := SquareWave{Low: low, High: high, Period: period, HighFraction: highFraction}
	if !s.valid() {
		return SquareWave{}, fmt.Errorf("sim: invalid square wave low=%g high=%g period=%g frac=%g",
			low, high, period, highFraction)
	}
	return s, nil
}

// valid is NewSquareWave's check, which Options.validate also applies to a
// literal.
func (s SquareWave) valid() bool {
	return s.Low >= 0 && s.High >= s.Low && !math.IsInf(s.High, 1) && s.Period > 0 &&
		!math.IsInf(s.Period, 1) && s.HighFraction >= 0 && s.HighFraction <= 1
}

// RateAt implements Profile.
func (s SquareWave) RateAt(t float64) float64 {
	phase := math.Mod(t, s.Period) / s.Period
	if phase < s.HighFraction {
		return s.High
	}
	return s.Low
}

// MaxRate implements Profile.
func (s SquareWave) MaxRate() float64 { return s.High }

// arrivalChunk is how many accepted arrivals refillArrivals pregenerates per
// class per refill. One refill amortizes the profile-interface dispatch and
// RNG state traffic over the whole chunk, and the highest-rate classes stop
// paying a calendar round-trip per *candidate*: rejected candidates now cost
// two RNG draws instead of a schedule/pop/recycle cycle.
const arrivalChunk = 64

// arrivalQueue is one class's ring of pregenerated accepted arrival times,
// consumed lazily by handleArrival. Entries are absolute times, ascending;
// next is the first candidate time not yet thinned, carried across refills
// so the per-class RNG stream is consumed in exactly the order the
// one-at-a-time generator consumed it.
type arrivalQueue struct {
	times [arrivalChunk]float64
	head  int
	n     int
	next  float64
}

// pop removes and returns the earliest pending arrival time. The caller
// guarantees the ring is non-empty (refilling first when needed).
func (q *arrivalQueue) pop() float64 {
	t := q.times[q.head]
	q.head++
	q.n--
	if q.n == 0 {
		q.head = 0
	}
	return t
}

// refillArrivals batch-generates the next chunk of accepted arrivals for
// class k. Determinism is preserved draw for draw: the loop walks the same
// candidate chain (t_{i+1} = t_i + Exp) and interleaves the thinning draws
// exactly as the unbatched generator did — the successor's interarrival draw
// precedes the current candidate's accept draw — so the per-class RNG stream
// is consumed in the identical order and every accepted time is the
// identical float. Constant-rate profiles never thin (RateAt == MaxRate, so
// accept < 1 is false), which is why golden-hash runs are bit-identical.
//
// Generation stops at the chunk size or at the first candidate past the
// horizon: that candidate (accepted or not) is kept when the ring is
// otherwise empty, so the scheduled arrival chain always terminates in one
// past-horizon event that is never processed — the invariant
// TestClockNeverExceedsHorizon relies on. Over-drawing past the horizon is
// harmless: each class owns its split RNG stream, so no other consumer's
// draws shift.
func (s *simulator) refillArrivals(k int) {
	q := &s.arrQ[k]
	q.head = 0 // only ever refilled when empty
	prof := s.profiles[k]
	maxRate := prof.MaxRate()
	rng := s.arrRNG[k]
	for q.n < arrivalChunk {
		t := q.next
		q.next = t + rng.Exp(maxRate)
		// Thinning: the candidate becomes a real arrival with probability
		// λ(t)/λ_max, yielding an exact non-homogeneous Poisson process.
		ok := true
		if accept := prof.RateAt(t) / maxRate; accept < 1 && rng.Float64() >= accept {
			ok = false
		}
		if ok || (t > s.horizon && q.n == 0) {
			q.times[q.n] = t
			q.n++
		}
		if t > s.horizon {
			return
		}
	}
}
