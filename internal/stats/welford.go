// Package stats provides the statistical machinery used throughout clusterq:
// streaming moment accumulators, quantile estimation, confidence-interval
// estimates for simulation output, and the special functions (gamma,
// incomplete beta, Student-t) they require.
//
// Everything is implemented from scratch on top of the standard library so
// the module stays dependency-free.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates count, mean and variance of a stream of observations
// using Welford's numerically stable online algorithm. The zero value is an
// empty accumulator ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations seen so far.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean, or NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance (divisor n-1), or NaN when
// fewer than two observations have been added.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return math.Sqrt(w.Variance() / float64(w.n))
}

// Min returns the smallest observation, or NaN when empty.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation, or NaN when empty.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// Reset returns the accumulator to its empty state.
func (w *Welford) Reset() { *w = Welford{} }

// CI returns a two-sided Student-t confidence interval half-width for the
// mean at the given confidence level (e.g. 0.95). It returns NaN when fewer
// than two observations have been recorded.
func (w *Welford) CI(level float64) float64 {
	if w.n < 2 {
		return math.NaN()
	}
	t := TQuantile(1-(1-level)/2, float64(w.n-1))
	return t * w.StdErr()
}

// String summarizes the accumulator for diagnostics.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		w.n, w.Mean(), w.StdDev(), w.Min(), w.Max())
}
