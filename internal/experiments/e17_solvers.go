package experiments

import (
	"fmt"
	"math"
	"time"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/opt"
	"clusterq/internal/workload"
)

// E17 is the solver ablation: the Lagrangian dual decomposition (which
// exploits the model's separability across tiers — the structure the paper's
// analytical setting provides) against the general-purpose augmented
// Lagrangian, on identical C3a and C3b instances. Expected: identical
// solutions, with the dual orders of magnitude cheaper — evidence that the
// paper's "efficient" claim is structural, not solver luck.
type E17 struct{}

func (E17) ID() string { return "E17" }
func (E17) Title() string {
	return "Ablation — Lagrangian dual decomposition vs general augmented Lagrangian (C3a, C3b)"
}

func (E17) Run(cfg Config) ([]*Table, error) {
	starts, al := solverScale(cfg)
	shapes := []struct{ j, k int }{{2, 2}, {3, 3}, {5, 3}, {8, 4}}
	if cfg.Quick {
		shapes = shapes[:3]
	}
	columns := []string{"tiers", "classes",
		"dual: power W", "dual: ms", "dual: evals",
		"auglag: power W", "auglag: ms", "auglag: evals",
		"power gap"}
	agg := NewTable("MinimizeEnergy (C3a): dual decomposition vs augmented Lagrangian", columns...)
	per := NewTable("MinimizeEnergyPerClass (C3b): dual decomposition vs augmented Lagrangian", columns...)
	for _, sh := range shapes {
		c := workload.Scalable(sh.j, sh.k, 1)
		_, dWorst, err := delayRange(c)
		if err != nil {
			return nil, err
		}
		bound := dWorst * 0.5
		err = e17Row(agg, sh.j, sh.k,
			func() (*core.Solution, error) {
				return core.MinimizeEnergyDual(c, core.EnergyOptions{MaxWeightedDelay: bound})
			},
			func() (*core.Solution, error) {
				return core.MinimizeEnergy(c, core.EnergyOptions{MaxWeightedDelay: bound, Starts: starts, AugLag: al})
			})
		if err != nil {
			return nil, err
		}

		bounds, err := e17ClassBounds(c)
		if err != nil {
			return nil, err
		}
		err = e17Row(per, sh.j, sh.k,
			func() (*core.Solution, error) {
				return core.MinimizeEnergyPerClass(c, core.EnergyOptions{MaxClassDelay: bounds})
			},
			func() (*core.Solution, error) { return augLagPerClass(c, bounds, starts, al) })
		if err != nil {
			return nil, err
		}
	}
	return []*Table{agg, per}, nil
}

// e17Row times the dual and the augmented-Lagrangian solve of one instance
// and adds their comparison to t.
func e17Row(t *Table, j, k int, dual, auglag func() (*core.Solution, error)) error {
	t0 := time.Now()
	d, err := dual()
	dualMS := float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		return err
	}
	t0 = time.Now()
	a, err := auglag()
	alMS := float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		return err
	}
	t.AddRow(j, k,
		d.Objective, dualMS, d.Result.Evals,
		a.Objective, alMS, a.Result.Evals,
		Pct((a.Objective-d.Objective)/d.Objective))
	return nil
}

// e17ClassBounds gives every class but the highest-priority one a mean-delay
// bound halfway between its delay at maximum speeds and at a leisurely
// operating point (20% above the speed floor); the top class is left
// unbounded.
func e17ClassBounds(c *cluster.Cluster) ([]float64, error) {
	lo, hi := c.SpeedBounds()
	slow := make([]float64, len(lo))
	for i := range lo {
		slow[i] = lo[i] + 0.2*(hi[i]-lo[i])
	}
	at := func(speeds []float64) (*cluster.Metrics, error) {
		x := c.Clone()
		if err := x.SetSpeeds(speeds); err != nil {
			return nil, err
		}
		return cluster.Evaluate(x)
	}
	mf, err := at(hi)
	if err != nil {
		return nil, err
	}
	ms, err := at(slow)
	if err != nil {
		return nil, err
	}
	bounds := make([]float64, len(c.Classes))
	for k := 1; k < len(bounds); k++ {
		bounds[k] = (mf.Delay[k] + ms.Delay[k]) / 2
	}
	return bounds, nil
}

// augLagPerClass is the general-purpose C3b reference: multi-start augmented
// Lagrangian over the full cluster evaluation, with one normalized
// constraint (D_k − b_k)/b_k per bounded class.
func augLagPerClass(c *cluster.Cluster, bounds []float64, starts int, al opt.AugLagOptions) (*core.Solution, error) {
	work := c.Clone()
	metrics := func(s []float64) *cluster.Metrics {
		if err := work.SetSpeeds(s); err != nil {
			return nil
		}
		m, err := cluster.Evaluate(work)
		if err != nil {
			return nil
		}
		return m
	}
	power := func(s []float64) float64 {
		if m := metrics(s); m != nil {
			return m.TotalPower
		}
		return math.Inf(1)
	}
	var gs []opt.Constraint
	for k, b := range bounds {
		if b <= 0 {
			continue
		}
		k, b := k, b
		gs = append(gs, func(s []float64) float64 {
			m := metrics(s)
			if m == nil || math.IsInf(m.Delay[k], 1) {
				return math.Inf(1)
			}
			return (m.Delay[k] - b) / b
		})
	}
	box, err := opt.NewBox(work.SpeedBounds())
	if err != nil {
		return nil, err
	}
	r := opt.MultiStart(func(x0 []float64) opt.Result {
		return opt.AugmentedLagrangian(power, gs, box, x0, al)
	}, box, starts)
	for i, g := range gs {
		if v := g(r.X); !(v <= 1e-3) {
			return nil, fmt.Errorf("e17: augmented Lagrangian left bound %d violated by %g (relative)", i, v)
		}
	}
	out := c.Clone()
	if err := out.SetSpeeds(r.X); err != nil {
		return nil, err
	}
	m, err := cluster.Evaluate(out)
	if err != nil {
		return nil, err
	}
	return &core.Solution{Cluster: out, Metrics: m, Objective: r.F, Result: r}, nil
}
