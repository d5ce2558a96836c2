// Package core implements the paper's contributions on top of the cluster
// model:
//
//   - MinimizeDelay (C2): minimize the average end-to-end delay subject to an
//     average energy (power) budget, by optimizing per-tier DVFS speeds.
//   - MinimizeEnergy (C3a): minimize the average power subject to a bound on
//     the aggregate (all-class) average end-to-end delay.
//   - MinimizeEnergyPerClass (C3b): the same with per-class delay bounds.
//   - MinimizeCost (C4): minimize the total provisioning cost (servers ×
//     per-server price) such that every priority class's SLA — mean and/or
//     percentile end-to-end delay — is guaranteed, choosing both integer
//     server counts and tier speeds.
//
// Every problem — C2, C3a, C3b, MinimizeEnergyTail and C4's speed tuning —
// is solved by one Lagrangian dual decomposition engine (decomposed.go): one
// projected Newton ascent on one multiplier per constraint serves them all.
// Mean delays are separable across tiers and solved exactly. A percentile
// bound is not; it enters as a tail row linearized in the class's per-tier
// response times and re-linearized at every iterate, whose fixed point is
// the tail problem's own optimum.
//
// All solvers operate on a clone of the input cluster; the input is never
// mutated. Baseline allocators (uniform, load-proportional) used in the
// paper-style comparisons live in baselines.go.
package core

import (
	"fmt"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
)

// Solution is the outcome of any of the optimizers: the configured cluster,
// its analytical metrics, and solver diagnostics.
type Solution struct {
	// Cluster is a configured clone of the input with the chosen speeds
	// (and, for MinimizeCost, server counts).
	Cluster *cluster.Cluster
	// Metrics are the analytical metrics of the configured cluster.
	Metrics *cluster.Metrics
	// Objective is the achieved objective value (delay, power or cost,
	// depending on the problem).
	Objective float64
	// Result carries solver diagnostics (iterations, evaluations).
	Result opt.Result
	// Multipliers[k] is the dual multiplier of class k's delay bound in a
	// MinimizeEnergyPerClass solution (0 for unbounded or slack classes):
	// the marginal power of tightening the bound, per unit of relative
	// bound. Passed back as EnergyOptions.WarmStart it starts the next
	// solve of a nearby problem close to its answer. MinimizeDelay and
	// MinimizeEnergy report their one constraint's multiplier, the marginal
	// objective per unit of relative budget or bound; MinimizeEnergyTail
	// reports K zeros, then class k's tail row at index K+k. Nil otherwise.
	Multipliers []float64
}

func (s *Solution) String() string {
	return fmt.Sprintf("objective=%.6g speeds=%v (evals=%d)",
		s.Objective, s.Cluster.Speeds(), s.Result.Evals)
}
