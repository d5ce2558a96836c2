// Package opt is a from-scratch numerical optimization toolkit built for the
// paper's resource-allocation problems: golden-section and bisection in one
// dimension, Nelder–Mead with box constraints in many, an
// augmented-Lagrangian method for inequality-constrained problems, and a
// deterministic multi-start wrapper. It is stdlib-only.
//
// The production solvers in internal/core are dual decompositions and use
// only the one-dimensional searches. Nelder–Mead, the augmented Lagrangian
// and multi-start are the general-purpose reference the duals are measured
// against, in experiment E17 and in core's tests.
//
// All solvers minimize. Objectives may return +Inf to mark infeasible points
// (e.g. an unstable queueing configuration); the solvers treat such points as
// uniformly bad and retreat from them.
package opt

import (
	"fmt"
	"math"
)

// Objective is a scalar function of a vector.
type Objective func(x []float64) float64

// TraceEntry is one point of a solver's convergence trace: the state at the
// end of one (outer) iteration. The Step field is solver-specific scale
// information — the simplex x-spread for Nelder–Mead, the penalty weight µ for the augmented
// Lagrangian, and the dual bracket width for the decomposed solvers.
type TraceEntry struct {
	Iter      int     // 0-based (outer) iteration index
	F         float64 // incumbent objective value
	Violation float64 // max inequality-constraint violation (0 when unconstrained)
	Step      float64 // solver step scale (see above)
	Evals     int     // cumulative objective evaluations so far
}

// Result reports the outcome of a minimization.
type Result struct {
	X         []float64 // best point found
	F         float64   // objective at X
	Iters     int       // outer iterations performed
	Evals     int       // objective evaluations
	Converged bool      // tolerance met before the iteration cap
	// Trace records per-iteration convergence (objective, constraint
	// violation, step scale) for plotting solver behavior. Multi-start
	// wrappers keep the winning start's trace.
	Trace []TraceEntry
}

func (r Result) String() string {
	return fmt.Sprintf("f=%.6g at %v (iters=%d evals=%d converged=%v)",
		r.F, r.X, r.Iters, r.Evals, r.Converged)
}

// Box holds per-coordinate lower and upper bounds.
type Box struct {
	Lo, Hi []float64
}

// NewBox validates the bounds and returns the box.
func NewBox(lo, hi []float64) (Box, error) {
	if len(lo) != len(hi) || len(lo) == 0 {
		return Box{}, fmt.Errorf("opt: bound lengths %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if !(lo[i] <= hi[i]) {
			return Box{}, fmt.Errorf("opt: bounds inverted at %d: [%g, %g]", i, lo[i], hi[i])
		}
	}
	return Box{Lo: lo, Hi: hi}, nil
}

// Dim returns the dimensionality.
func (b Box) Dim() int { return len(b.Lo) }

// Project clamps x into the box in place and returns it.
func (b Box) Project(x []float64) []float64 {
	for i := range x {
		if x[i] < b.Lo[i] {
			x[i] = b.Lo[i]
		}
		if x[i] > b.Hi[i] {
			x[i] = b.Hi[i]
		}
	}
	return x
}

// Contains reports whether x lies inside the box (inclusive).
func (b Box) Contains(x []float64) bool {
	for i := range x {
		if x[i] < b.Lo[i] || x[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the box midpoint.
func (b Box) Center() []float64 {
	c := make([]float64, b.Dim())
	for i := range c {
		c[i] = (b.Lo[i] + b.Hi[i]) / 2
	}
	return c
}

// Width returns hi−lo per coordinate.
func (b Box) Width(i int) float64 { return b.Hi[i] - b.Lo[i] }

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
