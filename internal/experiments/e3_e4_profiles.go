package experiments

import (
	"fmt"

	"clusterq/internal/cluster"
	"clusterq/internal/workload"
)

// E3 reconstructs Fig. 1: per-class mean end-to-end delay as a function of
// the total arrival rate — the priority-separation figure: gold stays nearly
// flat while bronze blows up as the cluster saturates.
func runE3(cfg Config) ([]*Table, error) {
	base := workload.Enterprise3Tier(1)
	t := NewTable("mean end-to-end delay (s) by class",
		"load", "total λ (req/s)", "gold", "silver", "bronze")
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
		c := workload.CapacityFraction(base, frac)
		m, err := cluster.Evaluate(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(frac, c.TotalLambda(), m.Delay[0], m.Delay[1], m.Delay[2])
	}
	return []*Table{t}, nil
}

// E4 reconstructs Fig. 2: cluster average power vs load at several fixed
// DVFS settings, plus the energy-per-job view that exposes the sweet spot
// (static power amortizes with load; dynamic power grows with speed).
func runE4(cfg Config) ([]*Table, error) {
	speeds := []float64{2.5, 4, 6}
	base := workload.Enterprise3Tier(1)

	tp := NewTable("cluster average power (W)", "load",
		fmt.Sprintf("speed %.3g", speeds[0]),
		fmt.Sprintf("speed %.3g", speeds[1]),
		fmt.Sprintf("speed %.3g", speeds[2]))
	tej := NewTable("energy per served request (J)", "load",
		fmt.Sprintf("speed %.3g", speeds[0]),
		fmt.Sprintf("speed %.3g", speeds[1]),
		fmt.Sprintf("speed %.3g", speeds[2]))

	for _, frac := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
		rowP := []any{frac}
		rowE := []any{frac}
		for _, s := range speeds {
			c := workload.CapacityFraction(base, frac) // fractions measured at default speed 4
			if err := c.SetSpeeds([]float64{s, s, s}); err != nil {
				return nil, err
			}
			m, err := cluster.Evaluate(c)
			if err != nil {
				return nil, err
			}
			rowP = append(rowP, m.TotalPower)
			rowE = append(rowE, m.EnergyPerJob)
		}
		tp.AddRow(rowP...)
		tej.AddRow(rowE...)
	}
	return []*Table{tp, tej}, nil
}
