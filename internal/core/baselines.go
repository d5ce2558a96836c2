package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
)

// The baselines implement the naive allocation policies the paper-style
// evaluation compares against: they use a single scalar knob (a common speed
// multiplier) instead of optimizing per-tier speeds, which is what real
// deployments without a model tend to do ("run everything at 80%"). The
// speed baselines evaluate candidates through the same tier models as the
// duals (newTierFns) and report their answer as the duals do (solution).

// UniformDelayBaseline spends the energy budget with all tiers at the same
// speed: it bisects the largest common speed multiplier whose power fits the
// budget. Comparable to MinimizeDelay.
func UniformDelayBaseline(c *cluster.Cluster, budget float64) (*Solution, error) {
	if !(budget > 0) {
		return nil, fmt.Errorf("core: energy budget %g must be positive", budget)
	}
	t, err := newTierFns(c)
	if err != nil {
		return nil, err
	}
	x, s := make([]float64, t.width()), make([]float64, len(t.tiers))
	powerAt := func(f float64) float64 { return t.evalAt(t.uniform(f, s), x) }
	// The minimum speeds are stable unless some tier is unstable even at
	// its maximum (SpeedBounds), which makes the power +Inf at every f.
	switch p := powerAt(0); {
	case math.IsInf(p, 1):
		return nil, fmt.Errorf("core: cluster unstable at maximum speeds")
	case !(p <= budget):
		return nil, fmt.Errorf("core: energy budget %g W infeasible even at minimum speeds", budget)
	}
	// Power is increasing in f; find the largest affordable f.
	f := 1.0
	if powerAt(1) > budget {
		root, err := opt.Bisect(func(f float64) float64 { return powerAt(f) - budget }, 0, 1, 1e-9)
		if err != nil {
			return nil, err
		}
		f = root * 0.999999 // stay strictly inside the budget
	}
	return t.solution(t.uniform(f, s), t.delayRow(), opt.Result{Converged: true})
}

// UniformEnergyBaseline meets the aggregate delay bound with all tiers at the
// same relative speed: it bisects the smallest common multiplier whose delay
// meets the bound. Comparable to MinimizeEnergy.
func UniformEnergyBaseline(c *cluster.Cluster, maxDelay float64) (*Solution, error) {
	if !(maxDelay > 0) {
		return nil, fmt.Errorf("core: delay bound %g must be positive", maxDelay)
	}
	t, err := newTierFns(c)
	if err != nil {
		return nil, err
	}
	x, s, row := make([]float64, t.width()), make([]float64, len(t.tiers)), t.delayRow()
	delayAt := func(f float64) float64 { return dot(row, t.evalAt(t.uniform(f, s), x), x) }
	if d := delayAt(1); !(d <= maxDelay) {
		return nil, fmt.Errorf("core: delay bound %g s infeasible: best achievable is %g s", maxDelay, d)
	}
	f := 0.0
	if delayAt(0) > maxDelay {
		root, err := opt.Bisect(func(f float64) float64 {
			d := delayAt(f)
			if math.IsInf(d, 1) {
				return 1 // unstable counts as above the bound
			}
			return d - maxDelay
		}, 0, 1, 1e-9)
		if err != nil {
			return nil, err
		}
		f = math.Min(1, root*1.000001) // stay strictly feasible
	}
	return t.solution(t.uniform(f, s), t.powerRow(), opt.Result{Converged: true})
}

// UniformCostBaseline sizes every tier with the same server count (the
// smallest n such that all SLAs hold at maximum speeds). Comparable to
// MinimizeCost.
func UniformCostBaseline(c *cluster.Cluster, maxServersPerTier int) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if maxServersPerTier <= 0 {
		maxServersPerTier = 64
	}
	work := c.Clone()
	for n := 1; n <= maxServersPerTier; n++ {
		for _, t := range work.Tiers {
			t.Servers = n
		}
		if slaViolation(work) <= 0 {
			return costSolution(work, n)
		}
	}
	return nil, fmt.Errorf("core: uniform baseline cannot meet SLAs within %d servers per tier", maxServersPerTier)
}

// ProportionalCostBaseline sizes tiers proportionally to their offered work
// (the classic "capacity planning by utilization" rule): the smallest scale
// factor whose rounded-up counts meet all SLAs at maximum speeds. Without
// offered work anywhere every scale gives one server per tier, so that one
// sizing is all it tries.
func ProportionalCostBaseline(c *cluster.Cluster, maxServersPerTier int) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if maxServersPerTier <= 0 {
		maxServersPerTier = 64
	}
	work := c.Clone()
	// Offered work per tier at max speed (Erlangs).
	ms := work.TierModels()
	_, hi := cluster.ModelSpeedBounds(work, ms)
	loads := make([]float64, len(work.Tiers))
	idle := true
	for j, m := range ms {
		var w float64
		for k, d := range work.Tiers[j].Demands {
			w += m.Arrivals[k] * d.Work
		}
		loads[j] = w / hi[j]
		idle = idle && !(loads[j] > 0)
	}
	for scale := 1.0; ; scale += 0.25 {
		tooBig := false
		for j, t := range work.Tiers {
			n := int(math.Ceil(loads[j] * scale))
			if n < 1 {
				n = 1
			}
			if n > maxServersPerTier {
				tooBig = true
			}
			t.Servers = n
		}
		if slaViolation(work) <= 0 {
			return costSolution(work, 0)
		}
		if tooBig || idle {
			return nil, fmt.Errorf("core: proportional baseline cannot meet SLAs within %d servers per tier", maxServersPerTier)
		}
	}
}

// costSolution reports a sized cluster, which slaViolation left at maximum
// speeds, priced by its servers, after iters sizing steps.
func costSolution(c *cluster.Cluster, iters int) (*Solution, error) {
	m, err := cluster.Evaluate(c)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Cluster: c, Metrics: m,
		Objective: cluster.TotalCost(c),
		Result:    opt.Result{Iters: iters, Converged: true},
	}, nil
}
