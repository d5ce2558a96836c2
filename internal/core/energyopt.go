package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
)

// EnergyOptions configures MinimizeEnergy and MinimizeEnergyPerClass
// (problems C3a and C3b).
type EnergyOptions struct {
	// MaxWeightedDelay bounds the aggregate (arrival-rate-weighted)
	// average end-to-end delay; used by MinimizeEnergy.
	MaxWeightedDelay float64
	// MaxClassDelay[k] bounds class k's average end-to-end delay; used by
	// MinimizeEnergyPerClass. Entries ≤ 0 mean "unconstrained".
	MaxClassDelay []float64
	// WarmStart optionally gives MinimizeEnergyPerClass its initial
	// per-class multipliers, typically a previous solution's Multipliers;
	// nil starts from zero.
	WarmStart []float64
	// Starts is MinimizeEnergy's number of multi-start points (default 4).
	Starts int
	// AugLag configures MinimizeEnergy's inner augmented-Lagrangian solves.
	AugLag opt.AugLagOptions
}

// MinimizeEnergy solves the paper's C3a problem: choose per-tier speeds to
// minimize the cluster's average power subject to the all-class average
// end-to-end delay staying within the bound.
//
//	min_s  P(s)
//	s.t.   D̄(s) ≤ MaxWeightedDelay,  s ∈ [s_min, s_max]
//
// Power increases and delay decreases in every speed, so the optimum runs
// the cluster as slowly as the delay bound allows.
func MinimizeEnergy(c *cluster.Cluster, o EnergyOptions) (*Solution, error) {
	if !(o.MaxWeightedDelay > 0) {
		return nil, fmt.Errorf("core: delay bound %g must be positive", o.MaxWeightedDelay)
	}
	ev, err := newEvaluator(c)
	if err != nil {
		return nil, err
	}
	box, err := ev.box()
	if err != nil {
		return nil, err
	}
	// Feasibility: the fastest configuration gives the smallest achievable
	// delay.
	if dMin := ev.weightedDelay(box.Hi, nil); dMin > o.MaxWeightedDelay {
		return nil, fmt.Errorf("core: delay bound %g s infeasible: best achievable is %g s",
			o.MaxWeightedDelay, dMin)
	}

	objective := func(s []float64) float64 { return ev.power(s) }
	bound := func(s []float64) float64 {
		d := ev.weightedDelay(s, nil)
		if math.IsInf(d, 1) {
			return math.Inf(1)
		}
		return d - o.MaxWeightedDelay
	}

	starts := o.Starts
	if starts <= 0 {
		starts = 4
	}
	solve := func(x0 []float64) opt.Result {
		return opt.AugmentedLagrangian(objective, []opt.Constraint{bound}, box, x0, o.AugLag)
	}
	r := opt.MultiStart(solve, box, starts)
	if math.IsInf(r.F, 1) {
		return nil, fmt.Errorf("core: no feasible configuration found")
	}
	if v := bound(r.X); v > 1e-3*(1+o.MaxWeightedDelay) {
		return nil, fmt.Errorf("core: solver left delay bound violated by %g s", v)
	}
	return ev.finish(r.X, r.F, r)
}

// MinimizeEnergyPerClass solves the paper's C3b problem: minimize power with
// an individual delay bound per class (entries ≤ 0 are unconstrained).
//
//	min_s  P(s)
//	s.t.   D_k(s) ≤ MaxClassDelay[k] for every bounded class k.
//
// Per-class bounds interact with priority: tight bounds on low-priority
// classes are the expensive ones, since the only lever that helps them — more
// speed — also overshoots the already-easy high-priority bounds.
//
// Every D_k is a sum of per-tier terms, so the problem is solved exactly by
// dual decomposition with one multiplier per bounded class (see
// decomposed.go); Starts and AugLag do not apply. A power table that is not
// convex splits the speed box into parts, each solved by the dual, and the
// cheapest feasible part wins.
func MinimizeEnergyPerClass(c *cluster.Cluster, o EnergyOptions) (*Solution, error) {
	if len(o.MaxClassDelay) != len(c.Classes) {
		return nil, fmt.Errorf("core: %d delay bounds for %d classes", len(o.MaxClassDelay), len(c.Classes))
	}
	anyBound := false
	for _, b := range o.MaxClassDelay {
		if b > 0 {
			anyBound = true
		}
	}
	if !anyBound {
		return nil, fmt.Errorf("core: no positive delay bound given")
	}
	t, err := newTierFns(c, nil)
	if err != nil {
		return nil, err
	}
	// Feasibility at maximum speed: every delay is non-increasing in every
	// tier speed, so the fastest point is the least-delay point.
	delays := make([]float64, len(c.Classes))
	pow := t.evalAt(t.hi, delays)
	for k, b := range o.MaxClassDelay {
		if b > 0 && !(delays[k] <= b) {
			return nil, fmt.Errorf("core: class %d bound %g s infeasible: best achievable is %g s",
				k, b, delays[k])
		}
	}
	if math.IsInf(pow, 1) {
		return nil, fmt.Errorf("core: cluster unstable at maximum speeds")
	}
	// Each convex part is solved exactly; a part whose fastest point misses
	// a bound holds no feasible point.
	var (
		best      *perClassPoint
		bestT     *tierFns
		converged bool
		evals     int
		trace     []opt.TraceEntry
	)
parts:
	for _, part := range t.convexParts() {
		part.evalAt(part.hi, delays)
		for k, b := range o.MaxClassDelay {
			if b > 0 && !(delays[k] <= b) {
				continue parts
			}
		}
		p, conv, n, tr := part.perClassDual(o.MaxClassDelay, o.WarmStart)
		evals += n
		if best == nil || p.pow < best.pow {
			best, bestT, converged, trace = p, part, conv, tr
		}
	}
	sol, err := finishDual(bestT, best.speeds, evals, powerObjective, trace, converged)
	if err != nil {
		return nil, err
	}
	sol.Multipliers = best.nu
	return sol, nil
}

// BindingClasses reports which bounded classes sit within tol (relative) of
// their delay bound in the solution — the classes whose SLAs actually cost
// energy.
func BindingClasses(sol *Solution, bounds []float64, tol float64) []int {
	if tol <= 0 {
		tol = 0.02
	}
	var binding []int
	for k, b := range bounds {
		if b <= 0 || k >= len(sol.Metrics.Delay) {
			continue
		}
		if sol.Metrics.Delay[k] >= b*(1-tol) {
			binding = append(binding, k)
		}
	}
	return binding
}
