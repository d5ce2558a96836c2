package core

import (
	"testing"

	"clusterq/internal/cluster"
)

func TestMinimizeCostWithEnergyPriceMeetsSLAs(t *testing.T) {
	c := slaCluster()
	sol, err := MinimizeCost(c, CostOptions{EnergyPrice: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := cluster.CheckSLAs(sol.Cluster, sol.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Satisfied() {
			t.Errorf("SLA violated under TCO objective: %+v", r)
		}
	}
	// Objective is the combined cost.
	want := cluster.TotalCost(sol.Cluster) + 0.005*sol.Metrics.TotalPower
	if !almostEq(sol.Objective, want, 1e-9) {
		t.Errorf("objective %g != combined cost %g", sol.Objective, want)
	}
}

func TestEnergyPriceGrowsTheFleet(t *testing.T) {
	// As electricity gets expensive, the optimizer should trade servers
	// for speed: fleet size (servers) must be non-decreasing in the energy
	// price, and the high-price solution must run slower.
	c := slaCluster()
	countServers := func(s *Solution) int {
		n := 0
		for _, tier := range s.Cluster.Tiers {
			n += tier.Servers
		}
		return n
	}
	meanSpeedFrac := func(s *Solution) float64 {
		lo, hi := s.Cluster.SpeedBounds()
		var f float64
		for i, sp := range s.Cluster.Speeds() {
			if hi[i] > lo[i] {
				f += (sp - lo[i]) / (hi[i] - lo[i])
			}
		}
		return f / float64(len(lo))
	}

	cheap, err := MinimizeCost(c, CostOptions{EnergyPrice: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	pricey, err := MinimizeCost(c, CostOptions{EnergyPrice: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if countServers(pricey) < countServers(cheap) {
		t.Errorf("fleet shrank as energy got pricier: %d vs %d",
			countServers(pricey), countServers(cheap))
	}
	// With a bigger fleet, the pricey solution should run at a lower
	// relative speed (or at worst equal, if the fleet didn't grow).
	if countServers(pricey) > countServers(cheap) &&
		meanSpeedFrac(pricey) > meanSpeedFrac(cheap)+0.05 {
		t.Errorf("bigger fleet did not slow down: %.2f vs %.2f",
			meanSpeedFrac(pricey), meanSpeedFrac(cheap))
	}
	// Pricey power must not exceed cheap power (that is what it paid for).
	if pricey.Metrics.TotalPower > cheap.Metrics.TotalPower*1.01 {
		t.Errorf("power not reduced under high energy price: %g vs %g",
			pricey.Metrics.TotalPower, cheap.Metrics.TotalPower)
	}
}

func TestEnergyPriceZeroKeepsOldObjective(t *testing.T) {
	c := slaCluster()
	a, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	// Objective without energy price is pure provisioning cost.
	if a.Objective != cluster.TotalCost(a.Cluster) {
		t.Errorf("objective %g != provisioning cost %g", a.Objective, cluster.TotalCost(a.Cluster))
	}
}

func TestTCOHillClimbRespectsServerCap(t *testing.T) {
	c := slaCluster()
	sol, err := MinimizeCost(c, CostOptions{EnergyPrice: 10, MaxServersPerTier: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range sol.Cluster.Tiers {
		if tier.Servers > 3 {
			t.Errorf("tier %s exceeded the cap: %d", tier.Name, tier.Servers)
		}
	}
}
