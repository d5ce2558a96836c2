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
// deployments without a model tend to do ("run everything at 80%").

// UniformDelayBaseline spends the energy budget with all tiers at the same
// speed: it bisects the largest common speed multiplier whose power fits the
// budget. Comparable to MinimizeDelay.
func UniformDelayBaseline(c *cluster.Cluster, budget float64) (*Solution, error) {
	if !(budget > 0) {
		return nil, fmt.Errorf("core: energy budget %g must be positive", budget)
	}
	ev, err := newEvaluator(c)
	if err != nil {
		return nil, err
	}
	box, err := ev.box()
	if err != nil {
		return nil, err
	}
	speedsAt := func(f float64) []float64 {
		s := make([]float64, box.Dim())
		for i := range s {
			s[i] = box.Lo[i] + f*(box.Hi[i]-box.Lo[i])
		}
		return s
	}
	if ev.power(speedsAt(0)) > budget {
		return nil, fmt.Errorf("core: energy budget %g W infeasible even at minimum speeds", budget)
	}
	// Power is increasing in f; find the largest affordable f.
	f := 1.0
	if ev.power(speedsAt(1)) > budget {
		// g(f) = budget − power is decreasing-negating; use bisection on
		// power(f) = budget.
		root, err := opt.Bisect(func(f float64) float64 {
			return ev.power(speedsAt(f)) - budget
		}, 0, 1, 1e-9)
		if err != nil {
			return nil, err
		}
		f = root * 0.999999 // stay strictly inside the budget
	}
	s := speedsAt(f)
	d := ev.weightedDelay(s)
	return ev.finish(s, d, opt.Result{Converged: true})
}

// UniformEnergyBaseline meets the aggregate delay bound with all tiers at the
// same relative speed: it bisects the smallest common multiplier whose delay
// meets the bound. Comparable to MinimizeEnergy.
func UniformEnergyBaseline(c *cluster.Cluster, maxDelay float64) (*Solution, error) {
	if !(maxDelay > 0) {
		return nil, fmt.Errorf("core: delay bound %g must be positive", maxDelay)
	}
	ev, err := newEvaluator(c)
	if err != nil {
		return nil, err
	}
	box, err := ev.box()
	if err != nil {
		return nil, err
	}
	speedsAt := func(f float64) []float64 {
		s := make([]float64, box.Dim())
		for i := range s {
			s[i] = box.Lo[i] + f*(box.Hi[i]-box.Lo[i])
		}
		return s
	}
	delayAt := func(f float64) float64 { return ev.weightedDelay(speedsAt(f)) }
	if delayAt(1) > maxDelay {
		return nil, fmt.Errorf("core: delay bound %g s infeasible: best achievable is %g s", maxDelay, delayAt(1))
	}
	f := 0.0
	if delayAt(0) > maxDelay {
		root, err := opt.BisectDecreasing(delayAt, maxDelay, 0, 1, 1e-9)
		if err != nil {
			return nil, err
		}
		f = math.Min(1, root*1.000001) // stay strictly feasible
	}
	s := speedsAt(f)
	p := ev.power(s)
	return ev.finish(s, p, opt.Result{Converged: true})
}

// UniformCostBaseline sizes every tier with the same server count (the
// smallest n such that all SLAs hold at maximum speeds). Comparable to
// MinimizeCost.
func UniformCostBaseline(c *cluster.Cluster, maxServersPerTier int) (*Solution, error) {
	if maxServersPerTier <= 0 {
		maxServersPerTier = 64
	}
	work := c.Clone()
	for n := 1; n <= maxServersPerTier; n++ {
		for _, t := range work.Tiers {
			t.Servers = n
		}
		if slasHoldAtMaxSpeed(work) {
			m, err := cluster.Evaluate(work)
			if err != nil {
				return nil, err
			}
			return &Solution{
				Cluster: work, Metrics: m,
				Objective: cluster.TotalCost(work),
				Result:    opt.Result{Iters: n, Converged: true},
			}, nil
		}
	}
	return nil, fmt.Errorf("core: uniform baseline cannot meet SLAs within %d servers per tier", maxServersPerTier)
}

// ProportionalCostBaseline sizes tiers proportionally to their offered work
// (the classic "capacity planning by utilization" rule): the smallest scale
// factor whose rounded-up counts meet all SLAs at maximum speeds.
func ProportionalCostBaseline(c *cluster.Cluster, maxServersPerTier int) (*Solution, error) {
	if maxServersPerTier <= 0 {
		maxServersPerTier = 64
	}
	work := c.Clone()
	// Offered work per tier at max speed (Erlangs).
	_, hi := work.SpeedBounds()
	loads := make([]float64, len(work.Tiers))
	for j, m := range work.TierModels() {
		var w float64
		for k, d := range work.Tiers[j].Demands {
			w += m.Arrivals[k] * d.Work
		}
		loads[j] = w / hi[j]
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
		if slasHoldAtMaxSpeed(work) {
			m, err := cluster.Evaluate(work)
			if err != nil {
				return nil, err
			}
			return &Solution{
				Cluster: work, Metrics: m,
				Objective: cluster.TotalCost(work),
				Result:    opt.Result{Converged: true},
			}, nil
		}
		if tooBig {
			return nil, fmt.Errorf("core: proportional baseline cannot meet SLAs within %d servers per tier", maxServersPerTier)
		}
	}
}

// slasHoldAtMaxSpeed reports whether every SLA holds with all tiers at their
// maximum speed.
func slasHoldAtMaxSpeed(c *cluster.Cluster) bool {
	_, hi := c.SpeedBounds()
	if err := c.SetSpeeds(hi); err != nil {
		return false
	}
	m, err := cluster.Evaluate(c)
	if err != nil {
		return false
	}
	reports, err := cluster.CheckSLAs(c, m)
	if err != nil {
		return false
	}
	for _, r := range reports {
		if !r.Satisfied() {
			return false
		}
	}
	return true
}
