package experiments

import (
	"fmt"

	"clusterq/internal/cluster"
	"clusterq/internal/sim"
	"clusterq/internal/sim/multi"
	"clusterq/internal/workload"
)

// e22Load is each replica's nominal bottleneck utilization before the
// per-generation speed scaling and failure injection shift it.
const e22Load = 0.55

// e22Generations defines the heterogeneous fleet: three cluster generations
// of the enterprise scenario, differing in server speed (the hardware
// generation), failure regime (aging hardware breaks down) and DVFS policy
// (only the newest generation runs the runtime controller).
var e22Generations = []struct {
	name         string
	speedFactor  float64
	availability float64 // < 1 attaches breakdown/repair on every tier
	dvfs         bool    // attach the reactive DVFS controller
}{
	{name: "gen1-legacy", speedFactor: 0.8, availability: 0.9},
	{name: "gen2-current", speedFactor: 1.0, availability: 1},
	{name: "gen3-dvfs", speedFactor: 1.25, availability: 1, dvfs: true},
}

// e22MTBF matches E21's fast-switching repair regime.
const e22MTBF = 10.0

// e22Cluster builds one generation's cluster: the enterprise scenario at the
// nominal load with every tier's speed — and its DVFS clamp range — scaled
// by the generation factor.
func e22Cluster(speedFactor float64) *cluster.Cluster {
	c := workload.CapacityFraction(workload.Enterprise3Tier(1), e22Load).Clone()
	for _, t := range c.Tiers {
		t.Speed *= speedFactor
		t.MinSpeed *= speedFactor
		t.MaxSpeed *= speedFactor
	}
	return c
}

// e22Fleet assembles the multi-cluster replicas for one run.
func e22Fleet(cfg Config) []multi.Replica {
	horizon, _ := cfg.simScale()
	replicas := make([]multi.Replica, len(e22Generations))
	for i, g := range e22Generations {
		c := e22Cluster(g.speedFactor)
		o := sim.Options{Horizon: horizon}
		if g.availability < 1 {
			o.Failures = e21Failures(c, g.availability)
		}
		if g.dvfs {
			o.Controller = sim.UtilizationPolicy{Target: 0.6}
			o.ControlPeriod = 25
		}
		replicas[i] = multi.Replica{
			Name:    g.name,
			Cluster: c,
			Options: o,
			Seed:    cfg.Seed + 220 + uint64(i),
		}
	}
	return replicas
}

// E22 is the shared-clock fleet experiment: three heterogeneous cluster
// generations — mixed server speeds, one aging generation with breakdowns,
// one new generation under runtime DVFS — advanced in global event-time
// order by the internal/sim/multi orchestrator, each replica on its own
// deterministic seed. It reports per-replica per-class delay and goodput,
// per-replica power and bottleneck utilization, and the fleet rollup; the
// point is the orchestration surface (the unlock for fleet-level control),
// with per-replica results bit-identical to standalone runs (pinned by the
// multi package's tests).
func runE22(cfg Config) ([]*Table, error) {
	replicas := e22Fleet(cfg)
	orch, err := multi.New(replicas)
	if err != nil {
		return nil, err
	}
	results, err := orch.Results()
	if err != nil {
		return nil, err
	}

	tc := NewTable(
		fmt.Sprintf("per-replica per-class results (shared clock, load %.0f%%)", 100*e22Load),
		"replica", "speed", "class", "delay (s)", "goodput (req/s)", "served frac")
	for i, res := range results {
		g := e22Generations[i]
		c := replicas[i].Cluster
		for k, cl := range c.Classes {
			tc.AddRow(g.name, fmt.Sprintf("x%.3g", g.speedFactor), cl.Name,
				res.Delay[k].Mean, res.Goodput[k].Mean,
				Pct(res.Goodput[k].Mean/cl.Lambda))
		}
	}

	tf := NewTable("fleet rollup",
		"replica", "policy", "power (W)", "weighted delay (s)", "completed", "worst tier util")
	for i, res := range results {
		g := e22Generations[i]
		policy := "static"
		switch {
		case g.dvfs:
			policy = "reactive DVFS"
		case g.availability < 1:
			policy = fmt.Sprintf("breakdowns A=%.2g", g.availability)
		}
		worst := 0.0
		for _, tr := range res.Tiers {
			if tr.Utilization.Mean > worst {
				worst = tr.Utilization.Mean
			}
		}
		var done int64
		for _, n := range res.Completed {
			done += n
		}
		tf.AddRow(g.name, policy, res.TotalPower.Mean, res.WeightedDelay.Mean, done, Pct(worst))
	}
	s := multi.Summarize(results)
	tf.AddRow("FLEET", fmt.Sprintf("%d replicas", len(results)),
		s.TotalPower, s.WeightedDelay, s.Completed, "-")
	return []*Table{tc, tf}, nil
}
