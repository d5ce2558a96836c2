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
// analytical setting provides) against a general-purpose augmented
// Lagrangian, on identical C2, C3a, C3b and C4-speed-tuning instances, and on
// E16's percentile bounds, which the dual meets through re-linearized tail
// rows. Expected: identical solutions, with the dual orders of magnitude
// cheaper — evidence that the paper's "efficient" claim is structural, not
// solver luck. Its reference (auglag.go) is the only use of the augmented
// Lagrangian.
type E17 struct{}

func (E17) ID() string { return "E17" }
func (E17) Title() string {
	return "Ablation — Lagrangian dual decomposition vs general augmented Lagrangian (C2, C3a, C3b, C4 tuning, C3 tail)"
}

// tuneMargin is the fraction of each SLA bound C4's speed tuning plans
// against (core's tuning margin), so the tuned speeds meet the SLAs strictly.
const tuneMargin = 0.998

// solverScale gives the augmented-Lagrangian references their multi-start
// count and inner options; quick mode shrinks the inner solves so the suite
// stays test-friendly while exercising identical code.
func solverScale(cfg Config) (starts int, al opt.AugLagOptions) {
	if cfg.Quick {
		return 2, opt.AugLagOptions{OuterIters: 10, Inner: opt.NelderMeadOptions{MaxIters: 250}}
	}
	return 4, opt.AugLagOptions{}
}

func (E17) Run(cfg Config) ([]*Table, error) {
	starts, al := solverScale(cfg)
	shapes := []struct{ j, k int }{{2, 2}, {3, 3}, {5, 3}, {8, 4}}
	if cfg.Quick {
		shapes = shapes[:3]
	}
	c2 := e17Table("MinimizeDelay (C2)", "delay s", "tiers", "classes")
	agg := e17Table("MinimizeEnergy (C3a)", "power W", "tiers", "classes")
	per := e17Table("MinimizeEnergyPerClass (C3b)", "power W", "tiers", "classes")
	tune := e17Table("C4 speed tuning at the sized server counts", "power W", "tiers", "classes")
	for _, sh := range shapes {
		c := workload.Scalable(sh.j, sh.k, 1)
		pLo, pHi := budgetRange(c)
		budget := pLo + 0.3*(pHi-pLo)
		err := e17Row(c2, sh.j, sh.k,
			func() (*core.Solution, error) {
				return core.MinimizeDelay(c, core.DelayOptions{EnergyBudget: budget})
			},
			func() (*core.Solution, error) {
				return augLagReference(c, weightedDelay, []metricFn{atMost(totalPower, budget)}, starts, al)
			})
		if err != nil {
			return nil, err
		}

		_, dWorst, err := delayRange(c)
		if err != nil {
			return nil, err
		}
		bound := dWorst * 0.5
		err = e17Row(agg, sh.j, sh.k,
			func() (*core.Solution, error) {
				return core.MinimizeEnergy(c, core.EnergyOptions{MaxWeightedDelay: bound})
			},
			func() (*core.Solution, error) {
				return augLagReference(c, totalPower, []metricFn{atMost(weightedDelay, bound)}, starts, al)
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
			func() (*core.Solution, error) {
				return augLagReference(c, totalPower, classBounds(bounds), starts, al)
			})
		if err != nil {
			return nil, err
		}

		// C4's tuning stage: with the server counts sized, lower the speeds
		// to the least power meeting every class's mean SLA at the tuning
		// margin — C3b on the sized cluster.
		sized, err := core.MinimizeCost(c, core.CostOptions{SkipSpeedTuning: true})
		if err != nil {
			return nil, err
		}
		slas := make([]float64, len(c.Classes))
		for k, cl := range c.Classes {
			slas[k] = cl.SLA.MaxMeanDelay * tuneMargin
		}
		err = e17Row(tune, sh.j, sh.k,
			func() (*core.Solution, error) {
				return core.MinimizeEnergyPerClass(sized.Cluster, core.EnergyOptions{MaxClassDelay: slas})
			},
			func() (*core.Solution, error) {
				return augLagReference(sized.Cluster, totalPower, classBounds(slas), starts, al)
			})
		if err != nil {
			return nil, err
		}
	}
	// E16's points: the bronze class's p95 bound, one tail row for the dual.
	tail := e17Table("MinimizeEnergyTail (C3, bronze p95 at E16's bounds)", "power W", "X (s)", "percentile")
	c, xs, err := e16Bounds()
	if err != nil {
		return nil, err
	}
	const p = 0.95
	p95 := func(m *cluster.Metrics) float64 {
		q, err := cluster.DelayQuantile(c, m, 2, p)
		if err != nil {
			return math.Inf(1)
		}
		return q
	}
	for _, x := range xs {
		err := e17Row(tail, x, p,
			func() (*core.Solution, error) {
				return core.MinimizeEnergyTail(c, core.TailOptions{Bounds: []core.TailBound{{}, {}, {Delay: x, Percentile: p}}})
			},
			func() (*core.Solution, error) {
				return augLagReference(c, totalPower, []metricFn{atMost(p95, x)}, starts, al)
			})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{c2, agg, per, tune, tail}, nil
}

// e17Table returns an empty comparison table for one problem whose
// objective is reported in the given unit, its instances named by two keys.
func e17Table(problem, objective, key1, key2 string) *Table {
	return NewTable(problem+": dual decomposition vs augmented Lagrangian",
		key1, key2,
		"dual: "+objective, "dual: ms", "dual: evals",
		"auglag: "+objective, "auglag: ms", "auglag: evals",
		"gap")
}

// e17Row times the dual and the augmented-Lagrangian solve of one instance
// and adds their comparison to t.
func e17Row(t *Table, key1, key2 any, dual, auglag func() (*core.Solution, error)) error {
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
	t.AddRow(key1, key2,
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

// metricFn reads one quantity off the cluster's metrics at a candidate speed
// vector.
type metricFn func(*cluster.Metrics) float64

func totalPower(m *cluster.Metrics) float64 { return m.TotalPower }

// weightedDelay is the arrival-rate-weighted mean delay, +Inf when any class
// is unstable.
func weightedDelay(m *cluster.Metrics) float64 {
	if !m.Stable() {
		return math.Inf(1)
	}
	return m.WeightedDelay
}

// atMost returns the normalized constraint (f − limit)/limit.
func atMost(f metricFn, limit float64) metricFn {
	return func(m *cluster.Metrics) float64 { return (f(m) - limit) / limit }
}

// classBounds returns one atMost constraint on D_k per bounded class.
func classBounds(bounds []float64) []metricFn {
	var gs []metricFn
	for k, b := range bounds {
		if b > 0 {
			gs = append(gs, atMost(func(m *cluster.Metrics) float64 { return m.Delay[k] }, b))
		}
	}
	return gs
}

// augLagReference is the general-purpose reference the duals are measured
// against: multi-start augmented Lagrangian over the full cluster
// evaluation, minimizing objective subject to every constraint ≤ 0. Speeds
// the evaluation rejects count as +Inf.
func augLagReference(c *cluster.Cluster, objective metricFn, constraints []metricFn, starts int, al opt.AugLagOptions) (*core.Solution, error) {
	work := c.Clone()
	at := func(f metricFn) func([]float64) float64 {
		return func(s []float64) float64 {
			if err := work.SetSpeeds(s); err != nil {
				return math.Inf(1)
			}
			m, err := cluster.Evaluate(work)
			if err != nil {
				return math.Inf(1)
			}
			return f(m)
		}
	}
	gs := make([]constraint, len(constraints))
	for i, g := range constraints {
		gs[i] = at(g)
	}
	b, err := newBox(work.SpeedBounds())
	if err != nil {
		return nil, err
	}
	r := multiStart(func(x0 []float64) opt.Result {
		return augmentedLagrangian(at(objective), gs, b, x0, al)
	}, b, starts)
	for i, g := range gs {
		if v := g(r.X); !(v <= 1e-3) {
			return nil, fmt.Errorf("e17: augmented Lagrangian left constraint %d violated by %g (relative)", i, v)
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
