package queueing

import (
	"fmt"
	"math"
)

// ErlangB returns the Erlang-B blocking probability B(c, a) for c servers and
// offered load a = λ/μ, computed with the numerically stable recurrence
// B(0,a)=1, B(c,a) = aB(c−1,a) / (c + aB(c−1,a)).
func ErlangB(c int, a float64) float64 {
	if c < 0 || a < 0 {
		return math.NaN()
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the Erlang-C delay probability C(c, a) — the probability an
// arriving customer must wait in an M/M/c queue with offered load a = λ/μ.
// It returns 1 when the queue is saturated (a ≥ c).
func ErlangC(c int, a float64) float64 {
	if c <= 0 || a < 0 {
		return math.NaN()
	}
	if a >= float64(c) {
		return 1
	}
	b := ErlangB(c, a)
	rho := a / float64(c)
	return b / (1 - rho*(1-b))
}

// MMc holds the metrics of an M/M/c queue: arrival rate Lambda, per-server
// service rate Mu, and C servers.
type MMc struct {
	Lambda, Mu float64
	C          int
}

// NewMMc validates the parameters and returns the queue descriptor. The
// negated comparisons also reject NaN rates.
func NewMMc(lambda, mu float64, c int) (MMc, error) {
	if !(lambda >= 0) || !(mu > 0) || math.IsInf(lambda, 1) || math.IsInf(mu, 1) || c < 1 {
		return MMc{}, fmt.Errorf("queueing: invalid M/M/c parameters λ=%g μ=%g c=%d", lambda, mu, c)
	}
	return MMc{Lambda: lambda, Mu: mu, C: c}, nil
}

// OfferedLoad returns a = λ/μ (in Erlangs).
func (q MMc) OfferedLoad() float64 { return q.Lambda / q.Mu }

// Rho returns the per-server utilization a/c.
func (q MMc) Rho() float64 { return q.OfferedLoad() / float64(q.C) }

// Stable reports whether ρ < 1.
func (q MMc) Stable() bool { return q.Rho() < 1 }

// DelayProbability returns the Erlang-C probability that an arrival waits.
func (q MMc) DelayProbability() float64 { return ErlangC(q.C, q.OfferedLoad()) }

// MeanWait returns E[W] = C(c,a) / (cμ − λ), or +Inf when unstable.
func (q MMc) MeanWait() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.DelayProbability() / (float64(q.C)*q.Mu - q.Lambda)
}

// MeanResponse returns E[T] = E[W] + 1/μ.
func (q MMc) MeanResponse() float64 {
	w := q.MeanWait()
	if math.IsInf(w, 1) {
		return w
	}
	return w + 1/q.Mu
}
