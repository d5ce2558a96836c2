// Per-class SLA energy management (problem C3b): each customer class has its
// own delay bound; the provider wants the least-power DVFS setting that meets
// all of them. The example shows which class actually drives the bill —
// tightening the premium (high-priority) bound is nearly free, tightening
// the economy (low-priority) bound is what forces the cluster to speed up.
//
// Run with: go run ./examples/slaenergy
package main

import (
	"fmt"
	"log"

	"clusterq"
)

func main() {
	c := clusterq.Enterprise3Tier(1.0)

	// Best-case delays (all tiers at full speed) set the scale of "tight".
	_, hiSpeeds := c.SpeedBounds()
	fast := c.Clone()
	if err := fast.SetSpeeds(hiSpeeds); err != nil {
		log.Fatal(err)
	}
	mFast, err := clusterq.Evaluate(fast)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best achievable delays: gold %.2fs, silver %.2fs, bronze %.2fs\n\n",
		mFast.Delay[0], mFast.Delay[1], mFast.Delay[2])

	solve := func(bounds []float64) {
		sol, err := clusterq.MinimizeEnergyPerClass(c, clusterq.EnergyOptions{MaxClassDelay: bounds})
		if err != nil {
			fmt.Printf("  bounds %v: infeasible (%v)\n", bounds, err)
			return
		}
		fmt.Printf("  bounds gold≤%.2g silver≤%.2g bronze≤%.2g → power %.0f W, delays %.2f/%.2f/%.2f s\n",
			bounds[0], bounds[1], bounds[2], sol.Objective,
			sol.Metrics.Delay[0], sol.Metrics.Delay[1], sol.Metrics.Delay[2])
	}

	loose := []float64{mFast.Delay[0] * 8, mFast.Delay[1] * 8, mFast.Delay[2] * 8}
	fmt.Println("all bounds loose (cluster idles along):")
	solve(loose)

	fmt.Println("\ntightening the GOLD bound (priority absorbs part of the cost):")
	for _, mult := range []float64{3, 1.8, 1.2} {
		b := append([]float64(nil), loose...)
		b[0] = mFast.Delay[0] * mult
		solve(b)
	}

	fmt.Println("\ntightening the BRONZE bound (priority cannot help — only speed does):")
	for _, mult := range []float64{3, 1.8, 1.2} {
		b := append([]float64(nil), loose...)
		b[2] = mFast.Delay[2] * mult
		solve(b)
	}

	fmt.Println("\nlesson: at the same relative tightness, the low-priority bound costs")
	fmt.Println("at least as much power as the high-priority one — priority scheduling")
	fmt.Println("subsidizes the premium guarantee, never the economy one.")
}
