package experiments

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/obs/window"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// validationFracs are the bottleneck-utilization levels the validation tables
// sweep, matching the light-to-heavy progression evaluation sections use.
var validationFracs = []float64{0.3, 0.5, 0.7, 0.85}

// validationPoint is one load level of the E1/E2 sweeps: the analytical
// metrics next to the simulated result at the same operating point.
type validationPoint struct {
	model *cluster.Metrics
	res   *sim.Result
}

// runValidationPoint evaluates one load fraction analytically and by
// simulation. The seed is a pure function of the config and the experiment
// constant, so points are safe to fan out via sweep.
func runValidationPoint(cfg Config, frac float64, seed uint64) (validationPoint, error) {
	horizon, reps := cfg.simScale()
	c := workload.CapacityFraction(workload.Enterprise3Tier(1), frac)
	m, err := cluster.Evaluate(c)
	if err != nil {
		return validationPoint{}, err
	}
	res, err := sim.Run(c, sim.Options{Horizon: horizon, Replications: reps, Seed: seed})
	if err != nil {
		return validationPoint{}, err
	}
	return validationPoint{model: m, res: res}, nil
}

// E1 reconstructs Table I: analytical vs simulated per-class mean end-to-end
// delay across load levels, with the relative model error — the "accurate"
// claim of the abstract, quantified.
func runE1(cfg Config) ([]*Table, error) {
	base := workload.Enterprise3Tier(1)
	points, err := sweep(cfg, len(validationFracs), func(i int) (validationPoint, error) {
		return runValidationPoint(cfg, validationFracs[i], cfg.Seed+1)
	})
	if err != nil {
		return nil, err
	}
	t := NewTable("per-class delay (s)",
		"load", "class", "analytic", "simulated (95% CI)", "rel. error")
	for i, frac := range validationFracs {
		p := points[i]
		for k, cl := range base.Classes {
			est := p.res.Delay[k]
			t.AddRow(frac, cl.Name, p.model.Delay[k], SimEstimate(est), Pct(est.RelErr(p.model.Delay[k])))
		}
	}

	tw, err := e1WindowTable(cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{t, tw}, nil
}

// e1WindowFrac is the load level the window-sensor cross-check runs at: the
// moderate point where both the analytic model and the estimators are
// comfortably in their regime.
const e1WindowFrac = 0.7

// e1WindowTable cross-checks the streaming sliding-window estimators against
// ground truth on the E1 scenario: the windowed arrival-rate estimate against
// the offered λ, and the windowed mean sojourn against the long-run simulated
// delay. It is the experiment-level exercise of the sensor API the online
// controller will read.
func e1WindowTable(cfg Config) (*Table, error) {
	horizon, _ := cfg.simScale()
	c := workload.CapacityFraction(workload.Enterprise3Tier(1), e1WindowFrac)
	w, err := window.NewSet(window.Config{Width: horizon / 4}, len(c.Classes), len(c.Tiers))
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(c, sim.Options{
		Horizon: horizon, Replications: 1, Seed: cfg.Seed + 10,
		Windows: w, Probe: &sim.Probe{Period: horizon / 200},
	})
	if err != nil {
		return nil, err
	}
	tw := NewTable(
		fmt.Sprintf("window sensors vs ground truth (load %.0f%%, window %.4g s, 1 replication)",
			100*e1WindowFrac, w.Config().Width),
		"class", "λ offered", "window λ̂", "delay sim (s)",
		"window mean (s)", "window "+w.Config().QuantileLabel()+" (s)")
	for k, cl := range c.Classes {
		cs := w.Class(horizon, k)
		tw.AddRow(cl.Name, cl.Lambda, cs.Rate, SimEstimate(res.Delay[k]),
			cs.MeanSojourn, cs.TailSojourn)
	}
	return tw, nil
}

// E2 reconstructs Table II: analytical vs simulated average power and
// per-class energy per request.
func runE2(cfg Config) ([]*Table, error) {
	base := workload.Enterprise3Tier(1)
	points, err := sweep(cfg, len(validationFracs), func(i int) (validationPoint, error) {
		return runValidationPoint(cfg, validationFracs[i], cfg.Seed+2)
	})
	if err != nil {
		return nil, err
	}

	tp := NewTable("cluster average power (W)",
		"load", "analytic", "simulated (95% CI)", "rel. error")
	te := NewTable("per-request dynamic energy (J)",
		"load", "class", "analytic", "simulated (95% CI)", "rel. error")

	for i, frac := range validationFracs {
		p := points[i]
		tp.AddRow(frac, p.model.TotalPower,
			SimEstimate(p.res.TotalPower),
			Pct(p.res.TotalPower.RelErr(p.model.TotalPower)))
		for k, cl := range base.Classes {
			est := p.res.EnergyPerRequest[k]
			te.AddRow(frac, cl.Name, p.model.EnergyPerRequest[k],
				SimEstimate(est), Pct(est.RelErr(p.model.EnergyPerRequest[k])))
		}
	}
	return []*Table{tp, te}, nil
}

// MaxValidationError runs the E1 sweep and returns the worst relative delay
// error between model and simulation — used by tests to enforce the paper's
// "efficient and accurate" claim quantitatively.
func MaxValidationError(cfg Config) (float64, error) {
	points, err := sweep(cfg, len(validationFracs), func(i int) (validationPoint, error) {
		return runValidationPoint(cfg, validationFracs[i], cfg.Seed+1)
	})
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, p := range points {
		for k := range p.model.Delay {
			if e := p.res.Delay[k].RelErr(p.model.Delay[k]); !math.IsNaN(e) && e > worst {
				worst = e
			}
		}
	}
	return worst, nil
}
