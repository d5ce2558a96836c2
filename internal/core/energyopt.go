package core

import (
	"fmt"

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
	// MinimizeEnergyPerClass. Entries ≤ 0 mean "unconstrained"; NaN and
	// +Inf are rejected.
	MaxClassDelay []float64
	// WarmStart optionally gives MinimizeEnergyPerClass its initial
	// per-class multipliers, typically a previous solution's Multipliers;
	// nil starts from zero.
	WarmStart []float64
	// Starts and AugLag are ignored; removed with the benchmark change of
	// ROADMAP item 1.
	Starts int
	AugLag opt.AugLagOptions
}

// MinimizeEnergy solves the paper's C3a problem: choose per-tier speeds to
// minimize the cluster's average power subject to the all-class average
// end-to-end delay staying within the bound.
//
//	min_s  P(s)
//	s.t.   D̄(s) ≤ MaxWeightedDelay,  s ∈ [s_min, s_max]
//
// The weighted delay is a sum of per-tier terms, so the problem is solved
// exactly by dual decomposition (see decomposed.go): projected Newton ascent
// on the bound's multiplier, the engine MinimizeEnergyPerClass uses. A power
// table that is not convex splits the speed box into parts, each solved by
// the dual, and the cheapest wins.
func MinimizeEnergy(c *cluster.Cluster, o EnergyOptions) (*Solution, error) {
	bound := o.MaxWeightedDelay
	if !(bound > 0) {
		return nil, fmt.Errorf("core: delay bound %g must be positive", bound)
	}
	t, err := newTierFns(c)
	if err != nil {
		return nil, err
	}
	// Feasibility: the fastest point gives the least delay.
	delays := make([]float64, len(t.wBy))
	t.evalAt(t.hi, delays)
	if dMin := dot(t.delayRow(), 0, delays); !(dMin <= bound) {
		return nil, fmt.Errorf("core: delay bound %g s infeasible: best achievable is %g s", bound, dMin)
	}
	return t.solveParts(&dualProblem{obj: t.powerRow(), rows: [][]float64{t.delayRow()}, bounds: []float64{bound}}, nil)
}

// MinimizeEnergyDual is MinimizeEnergy.
//
// Deprecated: MinimizeEnergy is the dual decomposition; call it.
func MinimizeEnergyDual(c *cluster.Cluster, o EnergyOptions) (*Solution, error) {
	return MinimizeEnergy(c, o)
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
// decomposed.go). A power table that is not convex splits the speed box into
// parts, each solved by the dual, and the cheapest feasible part wins.
func MinimizeEnergyPerClass(c *cluster.Cluster, o EnergyOptions) (*Solution, error) {
	if len(o.MaxClassDelay) != len(c.Classes) {
		return nil, fmt.Errorf("core: %d delay bounds for %d classes", len(o.MaxClassDelay), len(c.Classes))
	}
	return solveSLA(c, o.MaxClassDelay, nil, o.WarmStart)
}

// bindingTol is how close, relative to its bound, a class's delay must sit
// for BindingClasses to report it as binding.
const bindingTol = 0.03

// BindingClasses reports which bounded classes sit within bindingTol
// (relative) of their delay bound in the solution — the classes whose SLAs
// actually cost energy.
func BindingClasses(sol *Solution, bounds []float64) []int {
	var binding []int
	for k, b := range bounds {
		if b <= 0 || k >= len(sol.Metrics.Delay) {
			continue
		}
		if sol.Metrics.Delay[k] >= b*(1-bindingTol) {
			binding = append(binding, k)
		}
	}
	return binding
}
