package core

import (
	"math"
	"math/rand"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// randomCluster draws a structurally valid random cluster: 1–4 tiers, 1–3
// classes, random demands, power coefficients, server counts and loads kept
// comfortably inside stability at max speed.
func randomCluster(rng *rand.Rand) *cluster.Cluster {
	j := 1 + rng.Intn(4)
	k := 1 + rng.Intn(3)
	tiers := make([]*cluster.Tier, j)
	for i := range tiers {
		pm, err := power.NewPowerLaw(20+80*rng.Float64(), 0.1+rng.Float64(), 2+rng.Float64())
		if err != nil {
			panic(err)
		}
		demands := make([]queueing.Demand, k)
		for d := range demands {
			cv2 := []float64{0, 0.5, 1, 2}[rng.Intn(4)]
			demands[d] = queueing.Demand{Work: 0.3 + 2*rng.Float64(), CV2: cv2}
		}
		tiers[i] = &cluster.Tier{
			Name:       string(rune('A' + i)),
			Servers:    1 + rng.Intn(3),
			MinSpeed:   0.5,
			MaxSpeed:   8 + 4*rng.Float64(),
			Discipline: queueing.NonPreemptive,
			Power:      pm,
			Demands:    demands,
		}
		tiers[i].Speed = tiers[i].MaxSpeed // placed at a valid point; solvers move it
	}
	classes := make([]cluster.Class, k)
	for i := range classes {
		classes[i] = cluster.Class{Name: string(rune('a' + i)), Lambda: 0.2 + rng.Float64()}
	}
	c := &cluster.Cluster{Tiers: tiers, Classes: classes}
	// Scale arrivals so the bottleneck at max speed sits near 50%: every
	// random instance is solvable with headroom.
	u := bottleneckUtilization(c)
	if u > 0 {
		f := 0.5 / u
		for i := range c.Classes {
			c.Classes[i].Lambda *= f
		}
	}
	return c
}

// TestDualSolverPropertyRandomClusters drives the decomposed solver over
// random instances and asserts the solution contract: feasibility, bound
// satisfaction, and dominance over the uniform baseline.
func TestDualSolverPropertyRandomClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 25; trial++ {
		c := randomCluster(rng)
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random cluster: %v", trial, err)
		}
		// A reachable delay bound: twice the best achievable.
		_, hi := c.SpeedBounds()
		fast := c.Clone()
		if err := fast.SetSpeeds(hi); err != nil {
			t.Fatal(err)
		}
		mFast, err := cluster.Evaluate(fast)
		if err != nil {
			t.Fatal(err)
		}
		if !mFast.Stable() {
			continue // random instance saturated even flat out; skip
		}
		bound := mFast.WeightedDelay * 2

		sol, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: bound})
		if err != nil {
			t.Errorf("trial %d: dual failed: %v", trial, err)
			continue
		}
		if sol.Metrics.WeightedDelay > bound*1.002 {
			t.Errorf("trial %d: bound %g violated: %g", trial, bound, sol.Metrics.WeightedDelay)
		}
		if !sol.Metrics.Stable() {
			t.Errorf("trial %d: unstable solution", trial)
		}
		// Never worse than the uniform single-knob baseline.
		if base, err := UniformEnergyBaseline(c, bound); err == nil {
			if sol.Objective > base.Objective*1.005 {
				t.Errorf("trial %d: dual %g worse than uniform %g", trial, sol.Objective, base.Objective)
			}
		}
		// Power at the solution equals the objective.
		if math.Abs(sol.Objective-sol.Metrics.TotalPower) > 1e-6*(1+sol.Objective) {
			t.Errorf("trial %d: objective %g != power %g", trial, sol.Objective, sol.Metrics.TotalPower)
		}
	}
}

// TestCostSolverPropertyRandomClusters drives the C4 sizing over random
// instances with synthesized SLAs and asserts: SLAs hold, removal polish
// leaves no obviously redundant server.
func TestCostSolverPropertyRandomClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for trial := 0; trial < 12; trial++ {
		c := randomCluster(rng)
		for i := range c.Tiers {
			c.Tiers[i].CostPerServer = 1 + 3*rng.Float64()
		}
		// SLA: 3× the max-speed delay per class — demanding but reachable
		// once enough servers exist.
		_, hi := c.SpeedBounds()
		fast := c.Clone()
		if err := fast.SetSpeeds(hi); err != nil {
			t.Fatal(err)
		}
		mFast, err := cluster.Evaluate(fast)
		if err != nil || !mFast.Stable() {
			continue
		}
		for k := range c.Classes {
			c.Classes[k].SLA.MaxMeanDelay = mFast.Delay[k] * 3
		}
		// Load it harder so sizing is non-trivial.
		heavier := c.Clone()
		for k := range heavier.Classes {
			heavier.Classes[k].Lambda *= 1.4
		}

		sol, err := MinimizeCost(heavier, CostOptions{SkipSpeedTuning: true, MaxServersPerTier: 16})
		if err != nil {
			// Some random instances are genuinely unreachable within the
			// cap — acceptable, but should be rare.
			t.Logf("trial %d: sizing failed (acceptable if rare): %v", trial, err)
			continue
		}
		reports, err := cluster.CheckSLAs(sol.Cluster, sol.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			if !r.Satisfied() {
				t.Errorf("trial %d: SLA violated: %+v", trial, r)
			}
		}
		// Polish property: removing any single server must break an SLA
		// (otherwise the solution is not minimal under single removals).
		for j := range sol.Cluster.Tiers {
			if sol.Cluster.Tiers[j].Servers <= 1 {
				continue
			}
			probe := sol.Cluster.Clone()
			probe.Tiers[j].Servers--
			if slaViolation(probe) <= 0 {
				t.Errorf("trial %d: tier %d has a removable server", trial, j)
			}
		}
	}
}
