package experiments

import (
	"fmt"
	"time"

	"clusterq/internal/core"
	"clusterq/internal/workload"
)

// E9 reconstructs Fig. 6: solver efficiency — wall time and dual-function
// evaluations (each one minimization per tier) of the C3a optimization as
// the cluster grows in tiers and classes (the "efficient" claim of the
// abstract).
func runE9(cfg Config) ([]*Table, error) {
	shapes := []struct{ j, k int }{{2, 2}, {3, 3}, {5, 3}, {5, 6}, {8, 4}}
	if cfg.Quick {
		shapes = shapes[:3]
	}
	t := NewTable("MinimizeEnergy solve cost by problem size",
		"tiers", "classes", "wall time (ms)", "dual evals", "power (W)", "delay bound met")
	for _, sh := range shapes {
		c := workload.Scalable(sh.j, sh.k, 1)
		// A mid-range bound: double the best achievable delay.
		_, dWorst, err := delayRange(c)
		if err != nil {
			return nil, err
		}
		bound := dWorst * 0.5
		startT := time.Now()
		sol, err := core.MinimizeEnergy(c, core.EnergyOptions{MaxWeightedDelay: bound})
		elapsed := time.Since(startT)
		if err != nil {
			t.AddRow(sh.j, sh.k, Cell(float64(elapsed.Milliseconds())), "-", "error: "+err.Error(), "-")
			continue
		}
		met := sol.Metrics.WeightedDelay <= bound*1.002
		t.AddRow(sh.j, sh.k,
			fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/1000),
			sol.Result.Evals, sol.Objective, yesNo(met))
	}
	return []*Table{t}, nil
}
