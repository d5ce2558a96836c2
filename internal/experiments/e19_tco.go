package experiments

import (
	"fmt"

	"clusterq/internal/core"
	"clusterq/internal/power"
	"clusterq/internal/workload"
)

// E19 is the total-cost-of-ownership extension of C4: when electricity is
// priced into the objective, the cheapest SLA-compliant design shifts from a
// lean fleet at high DVFS speeds toward a larger fleet running slower
// (dynamic power is convex in speed, so splitting work across more servers
// saves watts). The experiment sweeps the energy price and reports the
// chosen fleet, speeds, power and cost split.
func runE19(cfg Config) ([]*Table, error) {
	c := workload.ScaleArrivals(workload.Enterprise3Tier(1), 2.2)
	// The canonical scenario's servers have a high idle floor (90–130 W)
	// against ~25 W of dynamic range — in that regime extra servers NEVER
	// pay (their idle floor swamps any cubic saving), and the optimal
	// fleet is price-invariant (verified by the hill climb declining every
	// candidate). The interesting trade-off needs energy-proportional
	// hardware: low idle, strong cubic dynamic term.
	for _, tier := range c.Tiers {
		pl, err := power.NewPowerLaw(25, 1.2, 3)
		if err != nil {
			return nil, err
		}
		tier.Power = pl
	}
	prices := []float64{0.0005, 0.002, 0.008, 0.03}
	if cfg.Quick {
		prices = prices[:3]
	}
	t := NewTable("TCO-optimal design vs energy price (SLA suite held fixed)",
		"energy price ($/W·h)", "servers web/app/db", "mean speed frac",
		"power (W)", "server cost ($/h)", "energy cost ($/h)", "total ($/h)")
	for _, price := range prices {
		sol, err := core.MinimizeCost(c, core.CostOptions{EnergyPrice: price})
		if err != nil {
			t.AddRow(price, "infeasible: "+err.Error(), "-", "-", "-", "-", "-")
			continue
		}
		counts := fmt.Sprintf("%d/%d/%d",
			sol.Cluster.Tiers[0].Servers, sol.Cluster.Tiers[1].Servers, sol.Cluster.Tiers[2].Servers)
		lo, hi := sol.Cluster.SpeedBounds()
		var frac float64
		for i, sp := range sol.Cluster.Speeds() {
			if hi[i] > lo[i] {
				frac += (sp - lo[i]) / (hi[i] - lo[i])
			}
		}
		frac /= float64(len(lo))
		serverCost := sol.Objective - price*sol.Metrics.TotalPower
		t.AddRow(price, counts, frac,
			sol.Metrics.TotalPower, serverCost, price*sol.Metrics.TotalPower, sol.Objective)
	}
	return []*Table{t}, nil
}
