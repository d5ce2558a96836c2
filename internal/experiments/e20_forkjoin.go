package experiments

import (
	"fmt"

	"clusterq/internal/queueing"
	"clusterq/internal/sim"
)

// E20 is the fork-join extension: the cost of parallelizing a cluster job
// across k nodes when completion requires ALL subtasks (the join barrier).
// The table reports the synchronization penalty R(k)/R(1) from the
// Nelson–Tantawi approximation with simulation alongside — the quantitative
// answer to "how much of my k-way speedup does the straggler barrier eat?".
func runE20(cfg Config) ([]*Table, error) {
	horizon, reps := cfg.simScale()
	widths := []int{1, 2, 4, 8, 16}
	loads := []float64{0.3, 0.6, 0.85}
	if cfg.Quick {
		widths = widths[:4]
	}

	cols := []string{"k"}
	for _, rho := range loads {
		cols = append(cols, fmt.Sprintf("ρ=%.2g NT", rho), fmt.Sprintf("ρ=%.2g sim", rho))
	}
	t := NewTable("mean response time (s), μ=1 per node", cols...)
	// The (width × load) grid is one flat sweep: every cell simulates its
	// own fork-join system from a seed fixed by the config, independent of
	// every other cell.
	type cell struct {
		nt  float64
		est float64
	}
	cells, err := sweep(cfg, len(widths)*len(loads), func(i int) (cell, error) {
		k, rho := widths[i/len(loads)], loads[i%len(loads)]
		nt, err := queueing.ForkJoinNelsonTantawi(k, rho, 1)
		if err != nil {
			return cell{}, err
		}
		est, err := sim.SimulateForkJoin(k, rho, 1, horizon, reps, cfg.Seed+20)
		if err != nil {
			return cell{}, err
		}
		return cell{nt: nt, est: est.Mean}, nil
	})
	if err != nil {
		return nil, err
	}
	for wi, k := range widths {
		row := []any{k}
		for li := range loads {
			c := cells[wi*len(loads)+li]
			row = append(row, c.nt, Cell(c.est))
		}
		t.AddRow(row...)
	}

	// The penalty view: how the join barrier scales with width and load.
	tp := NewTable("synchronization penalty R(k)/R(1) (Nelson–Tantawi)",
		"k", "ρ=0.1", "ρ=0.5", "ρ=0.9")
	for _, k := range widths {
		row := []any{k}
		for _, rho := range []float64{0.1, 0.5, 0.9} {
			p, err := queueing.ForkJoinSyncPenalty(k, rho)
			if err != nil {
				return nil, err
			}
			row = append(row, p)
		}
		tp.AddRow(row...)
	}
	return []*Table{t, tp}, nil
}
