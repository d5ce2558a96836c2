package experiments

import (
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/workload"
)

// E5 reconstructs Fig. 3: the delay/energy trade-off frontier of problem C2 —
// minimized average delay across an energy-budget sweep, against the uniform
// (single-knob) baseline.
func runE5(cfg Config) ([]*Table, error) {
	// The asymmetric (heavy-db) scenario: on a symmetric cluster the
	// optimum is uniform and the two curves coincide.
	c := workload.Enterprise3TierHeavyDB(1)

	// Budget range: from just above the cheapest stable power to the
	// full-speed power. Each budget point is an independent solve, fanned
	// out by the sweep runner.
	lo, hi := budgetRange(c)
	fracs := []float64{0.05, 0.15, 0.3, 0.5, 0.75, 1.0}
	rows, err := sweep(cfg, len(fracs), func(i int) ([]any, error) {
		budget := lo + fracs[i]*(hi-lo)
		sol, err := core.MinimizeDelay(c, core.DelayOptions{EnergyBudget: budget})
		if err != nil {
			return []any{budget, "infeasible", "-", "-"}, nil
		}
		base, err := core.UniformDelayBaseline(c, budget)
		baseDelay := math.NaN()
		if err == nil {
			baseDelay = base.Objective
		}
		impr := math.NaN()
		if !math.IsNaN(baseDelay) && baseDelay > 0 {
			impr = (baseDelay - sol.Objective) / baseDelay
		}
		return []any{budget, sol.Objective, baseDelay, Pct(impr)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := NewTable("weighted mean delay (s)",
		"budget (W)", "optimized", "uniform baseline", "improvement")
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// E6 reconstructs Fig. 4: minimized average power across an aggregate delay-
// bound sweep (problem C3a), against the uniform baseline.
func runE6(cfg Config) ([]*Table, error) {
	c := workload.Enterprise3TierHeavyDB(1) // see E5: asymmetry is the point
	dBest, dWorst, err := delayRange(c)
	if err != nil {
		return nil, err
	}
	fracs := []float64{0.15, 0.3, 0.5, 0.7, 0.9}
	rows, err := sweep(cfg, len(fracs), func(i int) ([]any, error) {
		bound := dBest + fracs[i]*(dWorst-dBest)
		sol, err := core.MinimizeEnergy(c, core.EnergyOptions{MaxWeightedDelay: bound})
		if err != nil {
			return []any{bound, "infeasible", "-", "-"}, nil
		}
		base, err := core.UniformEnergyBaseline(c, bound)
		basePower := math.NaN()
		if err == nil {
			basePower = base.Objective
		}
		sav := math.NaN()
		if !math.IsNaN(basePower) && basePower > 0 {
			sav = (basePower - sol.Objective) / basePower
		}
		return []any{bound, sol.Objective, basePower, Pct(sav)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := NewTable("cluster average power (W)",
		"delay bound (s)", "optimized", "uniform baseline", "savings")
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// E7 reconstructs Fig. 5: problem C3b — minimized power as the LOW-priority
// class's delay bound tightens while the others stay loose, reporting which
// classes bind. The punchline: the cheap-to-serve classes never bind; energy
// is spent on the class priority cannot help.
func runE7(cfg Config) ([]*Table, error) {
	c := workload.Enterprise3Tier(1)

	// Best achievable per-class delays at max speed set the bound scale.
	_, hi := c.SpeedBounds()
	mFast, err := evaluateAt(c, hi)
	if err != nil {
		return nil, err
	}

	mults := []float64{1.15, 1.5, 2.5, 4, 7}
	rows, err := sweep(cfg, len(mults), func(i int) ([]any, error) {
		bounds := []float64{
			mFast.Delay[0] * 6, // loose
			mFast.Delay[1] * 6, // loose
			mFast.Delay[2] * mults[i],
		}
		sol, err := core.MinimizeEnergyPerClass(c, core.EnergyOptions{MaxClassDelay: bounds})
		if err != nil {
			return []any{bounds[2], bounds[0], bounds[1], "infeasible", "-"}, nil
		}
		binding := core.BindingClasses(sol, bounds)
		names := ""
		for _, k := range binding {
			if names != "" {
				names += ","
			}
			names += c.Classes[k].Name
		}
		if names == "" {
			names = "(none)"
		}
		return []any{bounds[2], bounds[0], bounds[1], sol.Objective, names}, nil
	})
	if err != nil {
		return nil, err
	}
	t := NewTable("minimized power with per-class bounds",
		"bronze bound (s)", "gold bound (s)", "silver bound (s)", "power (W)", "binding classes")
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// evaluateAt returns the metrics of a clone of c at the given speeds.
func evaluateAt(c *cluster.Cluster, speeds []float64) (*cluster.Metrics, error) {
	x := c.Clone()
	if err := x.SetSpeeds(speeds); err != nil {
		return nil, err
	}
	return cluster.Evaluate(x)
}

// slowSpeeds returns a stable-but-leisurely operating point: every tier 20%
// of the way from its speed floor to its maximum.
func slowSpeeds(c *cluster.Cluster) []float64 {
	lo, hi := c.SpeedBounds()
	s := make([]float64, len(lo))
	for i := range lo {
		s[i] = lo[i] + 0.2*(hi[i]-lo[i])
	}
	return s
}

// budgetRange returns the feasible power range [cheapest stable, full speed].
func budgetRange(c *cluster.Cluster) (lo, hi float64) {
	loS, hiS := c.SpeedBounds()
	if m, err := evaluateAt(c, loS); err == nil {
		lo = m.TotalPower * 1.02
	}
	if m, err := evaluateAt(c, hiS); err == nil {
		hi = m.TotalPower
	}
	return lo, hi
}

// delayRange returns [best achievable delay, delay at a slow stable point].
func delayRange(c *cluster.Cluster) (best, worst float64, err error) {
	_, hiS := c.SpeedBounds()
	mf, err := evaluateAt(c, hiS)
	if err != nil {
		return 0, 0, err
	}
	ms, err := evaluateAt(c, slowSpeeds(c))
	if err != nil {
		return 0, 0, err
	}
	if !ms.Stable() {
		return mf.WeightedDelay, mf.WeightedDelay * 10, nil
	}
	return mf.WeightedDelay, ms.WeightedDelay, nil
}
