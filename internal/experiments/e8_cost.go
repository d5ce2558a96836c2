package experiments

import (
	"fmt"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// E8 reconstructs Table III: the C4 cost minimization — the cheapest server
// allocation meeting every priority class's SLA, against the uniform and
// load-proportional sizing baselines, with the SLAs verified by simulation.
func runE8(cfg Config) ([]*Table, error) {
	horizon, reps := cfg.simScale()
	// Load the scenario heavily enough that single servers cannot meet the
	// SLAs — the sizing problem has to do real work.
	c := workload.ScaleArrivals(workload.Enterprise3Tier(1), 2.2)

	type row struct {
		name string
		sol  *core.Solution
		err  error
	}
	rows := []row{}
	greedy, err := core.MinimizeCost(c, core.CostOptions{})
	rows = append(rows, row{"greedy (paper)", greedy, err})
	uni, err := core.UniformCostBaseline(c, 64)
	rows = append(rows, row{"uniform", uni, err})
	prop, err := core.ProportionalCostBaseline(c, 64)
	rows = append(rows, row{"proportional", prop, err})

	t := NewTable("allocation comparison",
		"policy", "cost ($/h)", "servers web/app/db", "power (W)", "SLAs met (model)", "SLAs met (sim)")
	for _, r := range rows {
		if r.err != nil {
			t.AddRow(r.name, "error: "+r.err.Error(), "-", "-", "-", "-")
			continue
		}
		sol := r.sol
		counts := fmt.Sprintf("%d/%d/%d",
			sol.Cluster.Tiers[0].Servers, sol.Cluster.Tiers[1].Servers, sol.Cluster.Tiers[2].Servers)
		reports, err := cluster.CheckSLAs(sol.Cluster, sol.Metrics)
		if err != nil {
			return nil, err
		}
		modelOK := true
		for _, rep := range reports {
			modelOK = modelOK && rep.Satisfied()
		}
		simOK := "-"
		res, err := sim.Run(sol.Cluster, sim.Options{Horizon: horizon, Replications: reps, Seed: cfg.Seed + 8})
		if err == nil {
			ok := true
			for k, cl := range sol.Cluster.Classes {
				if cl.SLA.HasMeanBound() && res.Delay[k].Mean > cl.SLA.MaxMeanDelay*1.05 {
					ok = false
				}
			}
			simOK = yesNo(ok)
		}
		t.AddRow(r.name, sol.Objective, counts, sol.Metrics.TotalPower, yesNo(modelOK), simOK)
	}

	// Per-class detail for the greedy solution.
	detail := NewTable("greedy allocation: per-class delays vs SLA bounds",
		"class", "bound (s)", "model delay (s)", "sim delay (s)")
	if greedy != nil {
		res, err := sim.Run(greedy.Cluster, sim.Options{Horizon: horizon, Replications: reps, Seed: cfg.Seed + 9})
		for k, cl := range greedy.Cluster.Classes {
			simD := "-"
			if err == nil {
				simD = PlusMinus(res.Delay[k].Mean, res.Delay[k].HalfW)
			}
			detail.AddRow(cl.Name, cl.SLA.MaxMeanDelay, greedy.Metrics.Delay[k], simD)
		}
	}
	return []*Table{t, detail}, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
