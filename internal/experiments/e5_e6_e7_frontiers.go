package experiments

import (
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/opt"
	"clusterq/internal/workload"
)

// quickAugLag shrinks the inner solves for quick mode so the full experiment
// suite stays test-friendly while exercising identical code.
func solverScale(cfg Config) (starts int, al opt.AugLagOptions) {
	if cfg.Quick {
		return 2, opt.AugLagOptions{OuterIters: 10, Inner: opt.NelderMeadOptions{MaxIters: 250}}
	}
	return 4, opt.AugLagOptions{}
}

// E5 reconstructs Fig. 3: the delay/energy trade-off frontier of problem C2 —
// minimized average delay across an energy-budget sweep, against the uniform
// (single-knob) baseline.
type E5 struct{}

func (E5) ID() string { return "E5" }
func (E5) Title() string {
	return "Fig. 3 — minimized average delay vs energy budget (C2), optimizer vs uniform baseline"
}

func (E5) Run(cfg Config) ([]*Table, error) {
	starts, al := solverScale(cfg)
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
		sol, err := core.MinimizeDelay(c, core.DelayOptions{EnergyBudget: budget, Starts: starts, AugLag: al})
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
type E6 struct{}

func (E6) ID() string { return "E6" }
func (E6) Title() string {
	return "Fig. 4 — minimized average power vs aggregate delay bound (C3a), optimizer vs uniform baseline"
}

func (E6) Run(cfg Config) ([]*Table, error) {
	starts, al := solverScale(cfg)
	c := workload.Enterprise3TierHeavyDB(1) // see E5: asymmetry is the point
	dBest, dWorst, err := delayRange(c)
	if err != nil {
		return nil, err
	}
	fracs := []float64{0.15, 0.3, 0.5, 0.7, 0.9}
	rows, err := sweep(cfg, len(fracs), func(i int) ([]any, error) {
		bound := dBest + fracs[i]*(dWorst-dBest)
		sol, err := core.MinimizeEnergy(c, core.EnergyOptions{MaxWeightedDelay: bound, Starts: starts, AugLag: al})
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
type E7 struct{}

func (E7) ID() string { return "E7" }
func (E7) Title() string {
	return "Fig. 5 — minimized power vs per-class delay bounds (C3b), binding classes"
}

func (E7) Run(cfg Config) ([]*Table, error) {
	c := workload.Enterprise3Tier(1)

	// Best achievable per-class delays at max speed set the bound scale.
	_, hi := c.SpeedBounds()
	fast := c.Clone()
	if err := fast.SetSpeeds(hi); err != nil {
		return nil, err
	}
	mFast, err := cluster.Evaluate(fast)
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
		binding := core.BindingClasses(sol, bounds, 0.03)
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

// budgetRange returns the feasible power range [cheapest stable, full speed].
func budgetRange(c *cluster.Cluster) (lo, hi float64) {
	loS, hiS := c.SpeedBounds()
	a := c.Clone()
	if err := a.SetSpeeds(loS); err == nil {
		if m, err := cluster.Evaluate(a); err == nil {
			lo = m.TotalPower * 1.02
		}
	}
	b := c.Clone()
	if err := b.SetSpeeds(hiS); err == nil {
		if m, err := cluster.Evaluate(b); err == nil {
			hi = m.TotalPower
		}
	}
	return lo, hi
}

// delayRange returns [best achievable delay, delay at a slow stable point].
func delayRange(c *cluster.Cluster) (best, worst float64, err error) {
	loS, hiS := c.SpeedBounds()
	fast := c.Clone()
	if err := fast.SetSpeeds(hiS); err != nil {
		return 0, 0, err
	}
	mf, err := cluster.Evaluate(fast)
	if err != nil {
		return 0, 0, err
	}
	slowSpeeds := make([]float64, len(loS))
	for i := range loS {
		// A stable-but-leisurely operating point: 20% above the floor.
		slowSpeeds[i] = loS[i] + 0.2*(hiS[i]-loS[i])
	}
	slow := c.Clone()
	if err := slow.SetSpeeds(slowSpeeds); err != nil {
		return 0, 0, err
	}
	ms, err := cluster.Evaluate(slow)
	if err != nil {
		return 0, 0, err
	}
	if !ms.Stable() {
		return mf.WeightedDelay, mf.WeightedDelay * 10, nil
	}
	return mf.WeightedDelay, ms.WeightedDelay, nil
}
