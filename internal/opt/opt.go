// Package opt holds the solver plumbing shared by the paper's optimizers:
// the Result every solve reports, its per-iteration TraceEntry, and the
// one-dimensional searches — golden-section minimization and bisection —
// that the dual decompositions in internal/core and the uniform baselines
// are built on. It is stdlib-only.
//
// The general-purpose reference solver that experiment E17 compares the
// duals with (a multi-start augmented Lagrangian over Nelder–Mead) lives
// next to E17 in internal/experiments. AugLagOptions and NelderMeadOptions
// configure it and stay here so that callers outside internal/experiments
// can still name its settings.
//
// The searches minimize. Objectives may return +Inf to mark infeasible
// points (e.g. an unstable queueing configuration); the searches treat such
// points as uniformly bad and retreat from them.
package opt

import "fmt"

// TraceEntry is one point of a solver's convergence trace: the state at the
// end of one (outer) iteration. The Step field is solver-specific scale
// information; the dual decompositions record their damping.
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
	// violation, step scale) for plotting solver behavior.
	Trace []TraceEntry
}

func (r Result) String() string {
	return fmt.Sprintf("f=%.6g at %v (iters=%d evals=%d converged=%v)",
		r.F, r.X, r.Iters, r.Evals, r.Converged)
}

// AugLagOptions configures E17's augmented-Lagrangian reference solver.
// Zero fields take the defaults given.
type AugLagOptions struct {
	OuterIters int     // default 30
	Penalty0   float64 // initial penalty weight; default 10
	PenaltyMul float64 // penalty growth per outer iteration; default 4
	// CTol is the largest constraint value g_i(x) that counts as
	// feasible; default 1e-6.
	CTol float64
	// Inner configures the inner unconstrained-in-the-box solves.
	Inner NelderMeadOptions
}

// NelderMeadOptions configures the reference solver's inner simplex
// searches. Zero fields take the defaults given.
type NelderMeadOptions struct {
	MaxIters int     // default 200·dim
	FTol     float64 // stop when the simplex f-spread falls below this; default 1e-10
	XTol     float64 // stop when the simplex x-spread falls below this; default 1e-9
	// InitStep scales the initial simplex relative to the box width
	// (default 0.1).
	InitStep float64
}
