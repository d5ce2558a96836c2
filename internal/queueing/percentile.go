package queueing

import (
	"fmt"
	"math"
)

// Hypoexponential is the distribution of a sum of independent exponential
// stages with the given rates — the approximation this package uses for
// end-to-end delays (each tier's sojourn approximated as exponential with
// the matching mean). It powers the percentile-type SLA calculations.
//
// The CDF is evaluated by uniformization of the bidiagonal phase-type
// generator rather than the partial-fraction closed form: the closed form
// suffers catastrophic cancellation when stage rates are close, while
// uniformization is stable for any rate configuration, including repeated
// rates (Erlang stages).
type Hypoexponential struct {
	rates []float64
	unif  float64 // uniformization rate Λ = max rate
}

// NewHypoexponential builds the distribution from the stage rates (all > 0).
func NewHypoexponential(rates []float64) (*Hypoexponential, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("queueing: hypoexponential needs at least one stage")
	}
	rs := append([]float64(nil), rates...)
	unif := 0.0
	for i, r := range rs {
		if !(r > 0) || math.IsInf(r, 1) {
			return nil, fmt.Errorf("queueing: stage %d rate %g must be positive and finite", i, r)
		}
		if r > unif {
			unif = r
		}
	}
	return &Hypoexponential{rates: rs, unif: unif}, nil
}

// HypoexpFromMeans builds the distribution from per-stage mean sojourn times
// (each stage rate is the reciprocal of its mean). Non-positive or infinite
// means are rejected.
func HypoexpFromMeans(means []float64) (*Hypoexponential, error) {
	rates := make([]float64, 0, len(means))
	for i, m := range means {
		if !(m > 0) || math.IsInf(m, 1) {
			return nil, fmt.Errorf("queueing: stage %d mean %g must be positive and finite", i, m)
		}
		rates = append(rates, 1/m)
	}
	return NewHypoexponential(rates)
}

// Mean returns Σ 1/r_j.
func (h *Hypoexponential) Mean() float64 {
	var s float64
	for _, r := range h.rates {
		s += 1 / r
	}
	return s
}

// Survival returns P(X > t), computed by uniformization: with Λ the maximum
// stage rate and P = I + Q/Λ the uniformized transition matrix over the
// transient (stage) states,
//
//	P(X > t) = Σ_m Poisson(Λt; m) · ‖v Pᵐ‖₁,  v = e₁.
//
// The series is truncated once the accumulated Poisson mass reaches 1−1e−13;
// for large Λt the Poisson weights are entered at the mode via logs to avoid
// underflow.
func (h *Hypoexponential) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	n := len(h.rates)
	lam := h.unif
	lt := lam * t

	// v holds the transient-state distribution after m uniformized steps;
	// its L1 norm is the survival conditional on m Poisson events.
	v := make([]float64, n)
	v[0] = 1
	step := func() float64 {
		// One multiplication by P: state j keeps mass with probability
		// 1−r_j/Λ and passes r_j/Λ forward; stage n−1 passes to absorption.
		carry := 0.0
		var norm float64
		for j := 0; j < n; j++ {
			p := h.rates[j] / lam
			out := v[j] * p
			v[j] = v[j]*(1-p) + carry
			carry = out
			norm += v[j]
		}
		return norm
	}

	// Poisson weight iteration. Left-truncate for large Λt so the first
	// weight does not underflow: start near the mode.
	m0 := 0
	if lt > 650 {
		m0 = int(lt - 10*math.Sqrt(lt))
		if m0 < 0 {
			m0 = 0
		}
	}
	// Advance v to step m0 (its norm only shrinks, so no accuracy loss).
	norm := 1.0
	for m := 0; m < m0; m++ {
		norm = step()
		if norm < 1e-300 {
			return 0
		}
	}
	// log w_{m0} = −Λt + m0·ln(Λt) − ln(m0!).
	lw, _ := math.Lgamma(float64(m0) + 1)
	logw := -lt + float64(m0)*math.Log(lt) - lw
	if m0 == 0 && lt == 0 {
		logw = 0
	}
	w := math.Exp(logw)

	surv := w * norm
	accW := w
	for m := m0 + 1; ; m++ {
		w *= lt / float64(m)
		norm = step()
		surv += w * norm
		accW += w
		if accW >= 1-1e-13 || (m > m0+10 && w*norm < 1e-18*(surv+1e-300)) {
			break
		}
		if m > m0+int(lt)+2000 { // safety bound; never reached in practice
			break
		}
	}
	if surv < 0 {
		return 0
	}
	if surv > 1 {
		return 1
	}
	return surv
}

// CDF returns P(X ≤ t).
func (h *Hypoexponential) CDF(t float64) float64 { return 1 - h.Survival(t) }

// Quantile returns the smallest t with CDF(t) ≥ p, found by bracketing and
// bisection (the CDF is continuous and strictly increasing on t > 0).
func (h *Hypoexponential) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Bracket: the mean is a good scale; expand until the CDF crosses p.
	hi := h.Mean()
	if hi <= 0 {
		return math.NaN()
	}
	for h.CDF(hi) < p {
		hi *= 2
		if math.IsInf(hi, 1) {
			return math.Inf(1)
		}
	}
	lo := 0.0
	for i := 0; i < 200 && hi-lo > 1e-12*(1+hi); i++ {
		mid := (lo + hi) / 2
		if h.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// EndToEndQuantile approximates the p-quantile of a class's end-to-end delay
// from its per-station mean response times along its route, using the
// exponential-stage (hypoexponential) approximation. Returns +Inf if any
// stage mean is infinite (unstable station on the route).
func EndToEndQuantile(stageMeans []float64, p float64) (float64, error) {
	for _, m := range stageMeans {
		if math.IsInf(m, 1) {
			return math.Inf(1), nil
		}
	}
	h, err := HypoexpFromMeans(stageMeans)
	if err != nil {
		return 0, err
	}
	return h.Quantile(p), nil
}
