// Energy-budget tuning (problem C2): a datacenter operator has a power cap
// and wants the best achievable latency under it. This example sweeps the
// cap across the feasible range, printing the delay/power frontier and the
// per-tier DVFS settings the optimizer picks — and compares against the
// naive "run every tier at the same relative speed" policy.
//
// Run with: go run ./examples/energybudget
package main

import (
	"fmt"
	"log"

	"clusterq"
)

func main() {
	// Start from the canonical scenario but make the database tier heavy
	// and give it DVFS headroom: asymmetric clusters are where per-tier
	// optimization beats the single-knob policy (a symmetric cluster's
	// optimum IS uniform, and the two coincide).
	c := clusterq.Enterprise3Tier(1.0)
	for k := range c.Tiers[2].Demands {
		c.Tiers[2].Demands[k].Work *= 2
	}
	c.Tiers[2].MaxSpeed = 24
	c.Tiers[2].Speed = 8

	// The feasible budget range: the cheapest stable operating point up to
	// everything-at-full-speed.
	lo, hi := c.SpeedBounds()
	slow, fast := c.Clone(), c.Clone()
	if err := slow.SetSpeeds(lo); err != nil {
		log.Fatal(err)
	}
	if err := fast.SetSpeeds(hi); err != nil {
		log.Fatal(err)
	}
	mSlow, err := clusterq.Evaluate(slow)
	if err != nil {
		log.Fatal(err)
	}
	mFast, err := clusterq.Evaluate(fast)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("feasible power range: %.0f W (floor) … %.0f W (full speed)\n\n",
		mSlow.TotalPower, mFast.TotalPower)

	fmt.Printf("%-12s %-14s %-14s %-12s %s\n",
		"budget (W)", "opt delay (s)", "naive delay", "saving", "tier speeds (web/app/db)")
	for _, f := range []float64{0.10, 0.25, 0.45, 0.70, 1.0} {
		budget := mSlow.TotalPower*1.02 + f*(mFast.TotalPower-mSlow.TotalPower*1.02)
		sol, err := clusterq.MinimizeDelay(c, clusterq.DelayOptions{EnergyBudget: budget})
		if err != nil {
			fmt.Printf("%-12.0f infeasible (%v)\n", budget, err)
			continue
		}
		naive, err := clusterq.UniformDelayBaseline(c, budget)
		naiveDelay := "n/a"
		saving := "n/a"
		if err == nil {
			naiveDelay = fmt.Sprintf("%.3f", naive.Objective)
			saving = fmt.Sprintf("%.1f%%", 100*(naive.Objective-sol.Objective)/naive.Objective)
		}
		s := sol.Cluster.Speeds()
		fmt.Printf("%-12.0f %-14.3f %-14s %-12s %.2f/%.2f/%.2f\n",
			budget, sol.Objective, naiveDelay, saving, s[0], s[1], s[2])
	}

	fmt.Println("\nreading the frontier: each extra watt buys less latency — the")
	fmt.Println("convex trade-off the paper's C2 formulation navigates; the optimizer")
	fmt.Println("spends the budget on the bottleneck tier first, the naive policy can't.")
}
