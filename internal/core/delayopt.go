package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
)

// DelayOptions configures MinimizeDelay (problem C2).
type DelayOptions struct {
	// EnergyBudget is the average power cap in watts (required, > 0).
	EnergyBudget float64
	// Weights optionally reweights the per-class delays in the objective;
	// nil uses arrival-rate weighting (the paper's all-class average).
	// Entries must be finite and non-negative, with a positive sum.
	Weights []float64
}

// MinimizeDelay solves the paper's C2 problem: choose per-tier speeds to
// minimize the average end-to-end delay subject to the cluster's average
// power staying within the energy budget.
//
//	min_s  Σ_k w_k D_k(s) / Σ_k w_k
//	s.t.   P(s) ≤ EnergyBudget,  s ∈ [s_min, s_max] per tier
//
// Delay and power are both sums of per-tier terms, so the problem is solved
// exactly by dual decomposition (see decomposed.go): projected Newton ascent
// on the budget's multiplier, the engine MinimizeEnergyPerClass uses. A power
// table that is not convex splits the speed box into parts, each solved by
// the dual, and the fastest wins.
func MinimizeDelay(c *cluster.Cluster, o DelayOptions) (*Solution, error) {
	budget := o.EnergyBudget
	if !(budget > 0) {
		return nil, fmt.Errorf("core: energy budget %g must be positive", budget)
	}
	if o.Weights != nil && len(o.Weights) != len(c.Classes) {
		return nil, fmt.Errorf("core: %d weights for %d classes", len(o.Weights), len(c.Classes))
	}
	t, err := newTierFns(c, o.Weights)
	if err != nil {
		return nil, err
	}
	// Feasibility: the cheapest point.
	if pMin := t.evalAt(t.lo, make([]float64, len(t.wBy))); pMin > budget {
		return nil, fmt.Errorf("core: energy budget %g W infeasible: minimum stable power is %g W", budget, pMin)
	}
	return t.solveParts(&dualProblem{obj: t.delayRow(), rows: [][]float64{t.powerRow()}, bounds: []float64{budget}}, nil)
}

// MinimizeDelayDual is MinimizeDelay.
//
// Deprecated: MinimizeDelay is the dual decomposition; call it.
func MinimizeDelayDual(c *cluster.Cluster, o DelayOptions) (*Solution, error) {
	return MinimizeDelay(c, o)
}

// DelayFrontier sweeps MinimizeDelay over a list of energy budgets and
// returns the achieved minimum delays — the energy/performance trade-off
// curve of the paper's Fig.-3-style plot. Budgets below feasibility produce
// NaN entries rather than an error so sweeps can span the interesting range.
func DelayFrontier(c *cluster.Cluster, budgets []float64, o DelayOptions) ([]float64, []*Solution, error) {
	delays := make([]float64, len(budgets))
	sols := make([]*Solution, len(budgets))
	for i, b := range budgets {
		oo := o
		oo.EnergyBudget = b
		sol, err := MinimizeDelay(c, oo)
		if err != nil {
			delays[i] = math.NaN()
			continue
		}
		delays[i] = sol.Objective
		sols[i] = sol
	}
	return delays, sols, nil
}
