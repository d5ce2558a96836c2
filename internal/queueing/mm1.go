package queueing

import (
	"fmt"
	"math"
)

// MM1 holds the closed-form metrics of an M/M/1 queue with arrival rate
// Lambda and service rate Mu.
type MM1 struct {
	Lambda, Mu float64
}

// NewMM1 validates the parameters and returns the queue descriptor. The
// negated comparisons reject NaN as well: NaN fails every ordered
// comparison, so `lambda < 0` alone would wave it through.
func NewMM1(lambda, mu float64) (MM1, error) {
	if !(lambda >= 0) || !(mu > 0) || math.IsInf(lambda, 1) || math.IsInf(mu, 1) {
		return MM1{}, fmt.Errorf("queueing: invalid M/M/1 parameters λ=%g μ=%g", lambda, mu)
	}
	return MM1{Lambda: lambda, Mu: mu}, nil
}

// Rho returns the utilization λ/μ.
func (q MM1) Rho() float64 { return q.Lambda / q.Mu }

// Stable reports whether the queue has a steady state (ρ < 1).
func (q MM1) Stable() bool { return q.Rho() < 1 }

// MeanResponse returns E[T] = 1/(μ−λ), or +Inf when unstable.
func (q MM1) MeanResponse() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return 1 / (q.Mu - q.Lambda)
}

// MeanWait returns E[W] = ρ/(μ−λ), or +Inf when unstable.
func (q MM1) MeanWait() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.Rho() / (q.Mu - q.Lambda)
}

// MG1 holds the Pollaczek–Khinchine metrics of an M/G/1 queue.
type MG1 struct {
	Lambda  float64
	Service ServiceDist
}

// NewMG1 validates and returns an M/G/1 descriptor.
func NewMG1(lambda float64, s ServiceDist) (MG1, error) {
	if !(lambda >= 0) || math.IsInf(lambda, 1) {
		return MG1{}, fmt.Errorf("queueing: invalid arrival rate %g", lambda)
	}
	if s == nil || !(s.Mean() > 0) {
		return MG1{}, fmt.Errorf("queueing: invalid service distribution %v", s)
	}
	return MG1{Lambda: lambda, Service: s}, nil
}

// Rho returns the utilization λE[S].
func (q MG1) Rho() float64 { return q.Lambda * q.Service.Mean() }

// Stable reports whether ρ < 1.
func (q MG1) Stable() bool { return q.Rho() < 1 }

// MeanWait returns the Pollaczek–Khinchine mean waiting time
// λE[S²] / (2(1−ρ)), or +Inf when unstable.
func (q MG1) MeanWait() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.Lambda * q.Service.SecondMoment() / (2 * (1 - q.Rho()))
}

// MeanResponse returns E[T] = E[W] + E[S].
func (q MG1) MeanResponse() float64 {
	w := q.MeanWait()
	if math.IsInf(w, 1) {
		return w
	}
	return w + q.Service.Mean()
}
