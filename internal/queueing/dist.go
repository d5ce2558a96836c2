// Package queueing implements the analytical queueing theory the paper's
// delay model is built on: M/M/1, M/M/c (Erlang B/C), M/G/1
// (Pollaczek–Khinchine), multi-class priority queues (Cobham's formulas,
// preemptive and non-preemptive), stations with class-dependent demands,
// Markov routing chains with their visit rates, and a hypoexponential
// percentile approximation. Networks of stations (tiers and routes) live in
// internal/cluster.
//
// Conventions used throughout the package:
//   - classes are indexed 0..K-1 with class 0 the HIGHEST priority;
//   - rates are in requests per unit time, times in the same time unit;
//   - a result of +Inf means the quantity diverges (unstable queue).
package queueing

import (
	"fmt"
	"math"
)

// ServiceDist describes a service-time distribution through the moments the
// analytical formulas need. CV2 is the squared coefficient of variation,
// Var/Mean²; SecondMoment is E[S²] = Var + Mean².
type ServiceDist interface {
	// Mean returns E[S] > 0.
	Mean() float64
	// SecondMoment returns E[S²].
	SecondMoment() float64
	// CV2 returns the squared coefficient of variation.
	CV2() float64
	// Scale returns the same distribution shape with the mean multiplied
	// by f > 0 (used when a server slows down or a demand factor applies).
	Scale(f float64) ServiceDist
	// String names the distribution for diagnostics.
	String() string
}

// Exponential is the memoryless service distribution with the given mean.
type Exponential struct{ M float64 }

// NewExponential returns an exponential service distribution with mean m.
func NewExponential(m float64) Exponential {
	mustPositiveMean("Exponential", m)
	return Exponential{M: m}
}

func (e Exponential) Mean() float64         { return e.M }
func (e Exponential) SecondMoment() float64 { return 2 * e.M * e.M }
func (e Exponential) CV2() float64          { return 1 }
func (e Exponential) Scale(f float64) ServiceDist {
	return Exponential{M: e.M * f}
}
func (e Exponential) String() string { return fmt.Sprintf("Exp(mean=%g)", e.M) }

// Deterministic is the constant service distribution.
type Deterministic struct{ M float64 }

// NewDeterministic returns a deterministic service distribution of value m.
func NewDeterministic(m float64) Deterministic {
	mustPositiveMean("Deterministic", m)
	return Deterministic{M: m}
}

func (d Deterministic) Mean() float64         { return d.M }
func (d Deterministic) SecondMoment() float64 { return d.M * d.M }
func (d Deterministic) CV2() float64          { return 0 }
func (d Deterministic) Scale(f float64) ServiceDist {
	return Deterministic{M: d.M * f}
}
func (d Deterministic) String() string { return fmt.Sprintf("Det(%g)", d.M) }

// Erlang is the sum of K exponential stages; CV² = 1/K < 1, modelling
// low-variability service such as fixed-size batch work.
type Erlang struct {
	M float64 // mean
	K int     // number of stages, ≥ 1
}

// NewErlang returns an Erlang-k distribution with the given mean.
func NewErlang(m float64, k int) Erlang {
	mustPositiveMean("Erlang", m)
	if k < 1 {
		panic(fmt.Sprintf("queueing: Erlang stages %d < 1", k))
	}
	return Erlang{M: m, K: k}
}

func (e Erlang) Mean() float64 { return e.M }
func (e Erlang) SecondMoment() float64 {
	// Var = m²/k, E[S²] = Var + m².
	return e.M * e.M * (1 + 1/float64(e.K))
}
func (e Erlang) CV2() float64 { return 1 / float64(e.K) }
func (e Erlang) Scale(f float64) ServiceDist {
	return Erlang{M: e.M * f, K: e.K}
}
func (e Erlang) String() string { return fmt.Sprintf("Erlang(mean=%g,k=%d)", e.M, e.K) }

// HyperExp is a two-phase hyperexponential distribution: with probability P
// the service is Exp(mean M1), otherwise Exp(mean M2). CV² ≥ 1, modelling
// bursty, heavy-tailed-ish service such as mixed small/large requests.
type HyperExp struct {
	P      float64 // probability of phase 1, in (0, 1)
	M1, M2 float64 // phase means
}

// NewHyperExpCV2 builds a balanced-means hyperexponential with the requested
// mean and squared coefficient of variation cv2 ≥ 1 (cv2 == 1 degenerates to
// exponential behaviour).
func NewHyperExpCV2(mean, cv2 float64) HyperExp {
	mustPositiveMean("HyperExp", mean)
	if !(cv2 >= 1) || math.IsInf(cv2, 1) {
		panic(fmt.Sprintf("queueing: hyperexponential requires finite CV² ≥ 1, got %g", cv2))
	}
	// Balanced means: p/m1 = (1-p)/m2. Standard construction.
	p := 0.5 * (1 + math.Sqrt((cv2-1)/(cv2+1)))
	m1 := mean / (2 * p)
	m2 := mean / (2 * (1 - p))
	return HyperExp{P: p, M1: m1, M2: m2}
}

func (h HyperExp) Mean() float64 { return h.P*h.M1 + (1-h.P)*h.M2 }
func (h HyperExp) SecondMoment() float64 {
	return 2 * (h.P*h.M1*h.M1 + (1-h.P)*h.M2*h.M2)
}
func (h HyperExp) CV2() float64 {
	m := h.Mean()
	return h.SecondMoment()/(m*m) - 1
}
func (h HyperExp) Scale(f float64) ServiceDist {
	return HyperExp{P: h.P, M1: h.M1 * f, M2: h.M2 * f}
}
func (h HyperExp) String() string {
	return fmt.Sprintf("HyperExp(p=%g,m1=%g,m2=%g)", h.P, h.M1, h.M2)
}

func mustPositiveMean(kind string, m float64) {
	if !(m > 0) || math.IsInf(m, 1) || math.IsNaN(m) {
		panic(fmt.Sprintf("queueing: %s mean %g must be positive and finite", kind, m))
	}
}
