package experiments

import (
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// E10 is the discipline ablation (Fig. 7): per-class delays under FCFS,
// non-preemptive priority, and preemptive-resume priority at the same load —
// the case for priority scheduling the paper's SLA tiering rests on.
// FCFS and non-preemptive come from both model and simulation; preemptive-
// resume on multi-server tiers has no closed form, so its column is
// simulation-only (exactly why the simulator exists).
func runE10(cfg Config) ([]*Table, error) {
	horizon, reps := cfg.simScale()
	base := workload.CapacityFraction(workload.Enterprise3Tier(1), 0.8)

	withDiscipline := func(d queueing.Discipline) *cluster.Cluster {
		c := base.Clone()
		for _, t := range c.Tiers {
			t.Discipline = d
		}
		return c
	}

	t := NewTable("per-class mean end-to-end delay (s) at 80% load",
		"class", "FCFS model", "FCFS sim", "NP model", "NP sim", "PR sim")
	fcfs := withDiscipline(queueing.FCFS)
	np := withDiscipline(queueing.NonPreemptive)
	pr := withDiscipline(queueing.PreemptiveResume)

	mF, err := cluster.Evaluate(fcfs)
	if err != nil {
		return nil, err
	}
	mN, err := cluster.Evaluate(np)
	if err != nil {
		return nil, err
	}
	rF, err := sim.Run(fcfs, sim.Options{Horizon: horizon, Replications: reps, Seed: cfg.Seed + 10})
	if err != nil {
		return nil, err
	}
	rN, err := sim.Run(np, sim.Options{Horizon: horizon, Replications: reps, Seed: cfg.Seed + 11})
	if err != nil {
		return nil, err
	}
	rP, err := sim.Run(pr, sim.Options{Horizon: horizon, Replications: reps, Seed: cfg.Seed + 12})
	if err != nil {
		return nil, err
	}
	for k, cl := range base.Classes {
		t.AddRow(cl.Name,
			mF.Delay[k], PlusMinus(rF.Delay[k].Mean, rF.Delay[k].HalfW),
			mN.Delay[k], PlusMinus(rN.Delay[k].Mean, rN.Delay[k].HalfW),
			PlusMinus(rP.Delay[k].Mean, rP.Delay[k].HalfW))
	}
	return []*Table{t}, nil
}

// E11 is the power-exponent sensitivity ablation (Fig. 8): how the optimal
// DVFS operating point of the C3a problem shifts with the power law exponent
// γ, with κ renormalized so full-speed busy power stays constant — isolating
// the curvature effect. Higher γ makes fast speeds disproportionately
// expensive, pushing the optimum toward slower, flatter allocations.
func runE11(cfg Config) ([]*Table, error) {
	t := NewTable("C3a optimum vs power exponent (busy power at max speed held fixed)",
		"gamma", "power (W)", "mean speed", "speeds web/app/db", "delay (s)")
	base := workload.Enterprise3Tier(1)
	_, dWorst, err := delayRange(base)
	if err != nil {
		return nil, err
	}
	bound := dWorst * 0.4

	for _, gamma := range []float64{2, 2.5, 3} {
		c := base.Clone()
		for _, tier := range c.Tiers {
			pl, ok := tier.Power.(power.PowerLaw)
			if !ok {
				continue
			}
			// Keep busy power at MaxSpeed constant across γ:
			// κ' · s_maxᵞ' = κ · s_maxᵞ.
			top := pl.Kappa * math.Pow(tier.MaxSpeed, pl.Gamma)
			npl, err := power.NewPowerLaw(pl.Idle, top/math.Pow(tier.MaxSpeed, gamma), gamma)
			if err != nil {
				return nil, err
			}
			tier.Power = npl
		}
		sol, err := core.MinimizeEnergy(c, core.EnergyOptions{MaxWeightedDelay: bound})
		if err != nil {
			t.AddRow(gamma, "infeasible", "-", "-", "-")
			continue
		}
		s := sol.Cluster.Speeds()
		mean := (s[0] + s[1] + s[2]) / 3
		t.AddRow(gamma, sol.Objective, mean,
			Cell(s[0])+"/"+Cell(s[1])+"/"+Cell(s[2]), sol.Metrics.WeightedDelay)
	}
	return []*Table{t}, nil
}
