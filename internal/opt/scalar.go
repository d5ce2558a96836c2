package opt

import (
	"fmt"
	"math"
)

// GoldenSection minimizes a unimodal scalar function on [lo, hi] to the given
// x-tolerance. It is derivative-free and robust to +Inf plateaus at the
// interval edges as long as the function is finite somewhere inside.
func GoldenSection(f func(float64) float64, lo, hi, tol float64) (x, fx float64, evals int) {
	if tol <= 0 {
		tol = 1e-9
	}
	const invPhi = 0.6180339887498949 // (√5−1)/2
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	evals = 2
	for b-a > tol*(1+math.Abs(a)+math.Abs(b)) {
		if fc < fd || (math.IsInf(fd, 1) && !math.IsInf(fc, 1)) {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
		evals++
		if evals > 500 {
			break
		}
	}
	if fc < fd {
		return c, fc, evals
	}
	return d, fd, evals
}

// Bisect finds a root of a continuous function g on [lo, hi] where
// g(lo) and g(hi) have opposite signs, to the given x-tolerance.
func Bisect(g func(float64) float64, lo, hi, tol float64) (float64, error) {
	if tol <= 0 {
		tol = 1e-10
	}
	glo, ghi := g(lo), g(hi)
	if glo == 0 {
		return lo, nil
	}
	if ghi == 0 {
		return hi, nil
	}
	if math.Signbit(glo) == math.Signbit(ghi) {
		return 0, fmt.Errorf("opt: no sign change on [%g, %g] (g=%g, %g)", lo, hi, glo, ghi)
	}
	for i := 0; i < 200 && hi-lo > tol*(1+math.Abs(lo)+math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		gm := g(mid)
		if gm == 0 {
			return mid, nil
		}
		if math.Signbit(gm) == math.Signbit(glo) {
			lo, glo = mid, gm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}
