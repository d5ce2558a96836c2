package experiments

import (
	"fmt"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// E12 is the dynamic power management extension (the future-work direction
// the paper's static formulations point at): under a diurnal arrival
// profile, compare three operating strategies on the canonical cluster —
//
//   - static-mean: the C3a-optimal speeds for the long-run average load;
//   - static-peak: the C3a-optimal speeds for the peak load;
//   - reactive: start from static-mean and let a utilization-target DVFS
//     controller retune every 10 s.
//
// Expected shape: reactive achieves close to static-peak's delay at close to
// static-mean's power — the classic dynamic-voltage-scaling win.
func runE12(cfg Config) ([]*Table, error) {
	horizon, reps := cfg.simScale()
	horizon *= 2 // cover several diurnal periods

	base := workload.Enterprise3Tier(1)
	meanLam := base.Lambdas()

	// Diurnal profiles per class: ±70% swing around each class's mean.
	period := horizon / 6
	profiles := make([]sim.Profile, len(base.Classes))
	for k, lam := range meanLam {
		p, err := sim.NewSinusoid(lam, 0.7*lam, period)
		if err != nil {
			return nil, err
		}
		profiles[k] = p
	}
	peakFactor := 1.7

	// Delay bound for the static optimizations: 2.5× the best achievable
	// at mean load.
	dBest, _, err := delayRange(base)
	if err != nil {
		return nil, err
	}
	bound := dBest * 2.5

	solMean, err := core.MinimizeEnergy(base, core.EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		return nil, err
	}
	peakCluster := workload.ScaleArrivals(base, peakFactor)
	solPeak, err := core.MinimizeEnergy(peakCluster, core.EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		return nil, err
	}
	// The peak allocation runs the MEAN-load cluster (same traffic model,
	// faster speeds).
	peakAtMean := base.Clone()
	if err := peakAtMean.SetSpeeds(solPeak.Cluster.Speeds()); err != nil {
		return nil, err
	}

	t := NewTable("strategies under a ±70% diurnal swing (simulated)",
		"strategy", "power (W)", "weighted delay (s)", "gold delay (s)", "bronze delay (s)")
	simOpts := sim.Options{Horizon: horizon, Replications: reps, Seed: cfg.Seed + 12, Profiles: profiles}

	addRow := func(name string, c *cluster.Cluster, o sim.Options) error {
		res, err := sim.Run(c, o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		t.AddRow(name,
			PlusMinus(res.TotalPower.Mean, res.TotalPower.HalfW),
			Cell(res.WeightedDelay.Mean),
			Cell(res.Delay[0].Mean), Cell(res.Delay[2].Mean))
		return nil
	}

	if err := addRow("static-mean", solMean.Cluster, simOpts); err != nil {
		return nil, err
	}
	if err := addRow("static-peak", peakAtMean, simOpts); err != nil {
		return nil, err
	}
	oCtl := simOpts
	oCtl.Controller = sim.UtilizationPolicy{Target: 0.6}
	oCtl.ControlPeriod = 10
	if err := addRow("reactive DVFS", solMean.Cluster, oCtl); err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// E13 is the provisioning-staircase extension: how the C4 minimum cost and
// allocation grow as traffic scales — capacity planning's answer to "when do
// I buy the next server, and at which tier?". Expected shape: a monotone
// staircase in cost with tier-targeted increments (the cheap web tier grows
// before the expensive db tier only when it is the binding resource).
func runE13(cfg Config) ([]*Table, error) {
	t := NewTable("C4 minimum-cost allocation as traffic grows",
		"traffic ×", "total λ (req/s)", "cost ($/h)", "servers web/app/db", "power (W)", "binding class")
	factors := []float64{1.0, 1.5, 2.0, 2.5, 3.0, 3.5}
	if cfg.Quick {
		factors = factors[:4]
	}
	prevCost := 0.0
	for _, f := range factors {
		c := workload.ScaleArrivals(workload.Enterprise3Tier(1), f)
		sol, err := core.MinimizeCost(c, core.CostOptions{SkipSpeedTuning: cfg.Quick})
		if err != nil {
			t.AddRow(f, c.TotalLambda(), "infeasible", "-", "-", "-")
			continue
		}
		counts := fmt.Sprintf("%d/%d/%d",
			sol.Cluster.Tiers[0].Servers, sol.Cluster.Tiers[1].Servers, sol.Cluster.Tiers[2].Servers)
		// Which class sits closest to its bound?
		binding, bindFrac := "-", 0.0
		for k, cl := range sol.Cluster.Classes {
			if !cl.SLA.HasMeanBound() {
				continue
			}
			frac := sol.Metrics.Delay[k] / cl.SLA.MaxMeanDelay
			if frac > bindFrac {
				bindFrac = frac
				binding = cl.Name
			}
		}
		t.AddRow(f, c.TotalLambda(), sol.Objective, counts, sol.Metrics.TotalPower, binding)
		if sol.Objective < prevCost {
			// Monotonicity check surfaced in the table itself.
			t.AddRow("", "", "WARNING: cost decreased with load", "", "", "")
		}
		prevCost = sol.Objective
	}
	return []*Table{t}, nil
}
