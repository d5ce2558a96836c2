package experiments

import (
	"clusterq/internal/cluster"
	"clusterq/internal/sim"
	"clusterq/internal/workload"

	"clusterq/internal/queueing"
)

// bronzeRetryRouting builds the 3-tier chains: gold and silver flow
// web→app→db and exit; bronze retries the app tier after db with
// probability p (a failed transaction replays its application logic).
func bronzeRetryRouting(p float64) []*queueing.ClassRouting {
	tandem := &queueing.ClassRouting{
		Entry: []float64{1, 0, 0},
		Next:  [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}},
	}
	retry := &queueing.ClassRouting{
		Entry: []float64{1, 0, 0},
		Next:  [][]float64{{0, 1, 0}, {0, 0, 1}, {0, p, 0}},
	}
	return []*queueing.ClassRouting{tandem, tandem, retry}
}

// E18 is the retry (probabilistic routing) extension: a fraction of bronze
// requests fails at the database tier and retries the app→db leg. Retries
// inflate the effective load — capacity the provider never billed for — so
// delay and energy erode super-linearly in the retry probability, and the
// cluster saturates well before the nominal load suggests. Analytic (traffic
// equations + priority network) and simulated side by side.
func runE18(cfg Config) ([]*Table, error) {
	horizon, reps := cfg.simScale()
	probs := []float64{0, 0.1, 0.25, 0.4, 0.5}
	type point struct {
		m      *cluster.Metrics
		res    *sim.Result
		visits float64
	}
	points, err := sweep(cfg, len(probs), func(i int) (point, error) {
		c := workload.CapacityFraction(workload.Enterprise3Tier(1), 0.7)
		c.Routing = bronzeRetryRouting(probs[i])
		m, err := cluster.Evaluate(c)
		if err != nil {
			return point{}, err
		}
		res, err := sim.Run(c, sim.Options{Horizon: horizon, Replications: reps, Seed: cfg.Seed + 18})
		if err != nil {
			return point{}, err
		}
		return point{m: m, res: res, visits: c.VisitRates(2)[2]}, nil
	})
	if err != nil {
		return nil, err
	}
	t := NewTable("bronze retries the app→db leg with probability p (load 70%)",
		"retry p", "bronze visits db", "bronze delay model (s)", "bronze delay sim (s)",
		"gold delay model (s)", "power model (W)", "power sim (W)")
	for i, p := range probs {
		pt := points[i]
		t.AddRow(p, pt.visits,
			pt.m.Delay[2], PlusMinus(pt.res.Delay[2].Mean, pt.res.Delay[2].HalfW),
			pt.m.Delay[0], pt.m.TotalPower,
			PlusMinus(pt.res.TotalPower.Mean, pt.res.TotalPower.HalfW))
	}
	return []*Table{t}, nil
}
