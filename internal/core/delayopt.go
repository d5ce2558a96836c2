package core

import (
	"fmt"

	"clusterq/internal/cluster"
)

// DelayOptions configures MinimizeDelay (problem C2).
type DelayOptions struct {
	// EnergyBudget is the average power cap in watts (required, > 0).
	EnergyBudget float64
}

// MinimizeDelay solves the paper's C2 problem: choose per-tier speeds to
// minimize the all-class average end-to-end delay, each class weighted by
// its arrival rate, subject to the cluster's average power staying within
// the energy budget.
//
//	min_s  Σ_k λ_k D_k(s) / Σ_k λ_k
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
	t, err := newTierFns(c)
	if err != nil {
		return nil, err
	}
	return t.minimizeDelay(budget)
}

// minimizeDelay solves C2 over t's class weights.
func (t *tierFns) minimizeDelay(budget float64) (*Solution, error) {
	// Feasibility: the point of least power.
	if pMin := t.evalAt(t.cheapest(), make([]float64, len(t.wBy))); pMin > budget {
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
