// Greenops: operating the cluster through a day/night cycle. Traffic swings
// ±70% around its mean; the example compares three ways of running the same
// hardware — a static allocation sized for the mean, one sized for the peak,
// and a reactive DVFS controller — and then shows what sleep states add at
// night on an over-provisioned tier.
//
// Run with: go run ./examples/greenops
package main

import (
	"fmt"
	"log"

	"clusterq"
)

func main() {
	c := clusterq.Enterprise3Tier(1.0)

	// A smooth diurnal profile per class: ±70% around each mean rate,
	// six "days" per simulation.
	const horizon = 60000.0
	profiles := make([]clusterq.Profile, len(c.Classes))
	for k, cl := range c.Classes {
		p, err := clusterq.NewSinusoid(cl.Lambda, 0.7*cl.Lambda, horizon/6)
		if err != nil {
			log.Fatal(err)
		}
		profiles[k] = p
	}

	// Static operating points from the paper's C3a optimizer (the fast
	// dual-decomposition path), for the mean and the peak traffic.
	m, err := clusterq.Evaluate(c)
	if err != nil {
		log.Fatal(err)
	}
	bound := m.WeightedDelay // hold today's delay as the target
	solMean, err := clusterq.MinimizeEnergy(c, clusterq.EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		log.Fatal(err)
	}
	peak := clusterq.ScaleArrivals(c, 1.7)
	solPeak, err := clusterq.MinimizeEnergy(peak, clusterq.EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		log.Fatal(err)
	}
	peakAtMean := c.Clone()
	if err := peakAtMean.SetSpeeds(solPeak.Cluster.Speeds()); err != nil {
		log.Fatal(err)
	}

	base := clusterq.SimOptions{Horizon: horizon, Replications: 3, Seed: 42, Profiles: profiles}
	show := func(name string, cl *clusterq.Cluster, o clusterq.SimOptions) {
		res, err := clusterq.Simulate(cl, o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s power %6.0f W   delay %5.2f s   (gold %.2f / bronze %.2f)\n",
			name, res.TotalPower.Mean, res.WeightedDelay.Mean,
			res.Delay[0].Mean, res.Delay[2].Mean)
	}

	fmt.Println("one cluster, three operating strategies, diurnal ±70% traffic:")
	show("static (mean-sized)", solMean.Cluster, base)
	show("static (peak-sized)", peakAtMean, base)
	ctl := base
	ctl.Controller = clusterq.UtilizationPolicy{Target: 0.6}
	ctl.ControlPeriod = 10
	show("reactive DVFS", solMean.Cluster, ctl)

	// Night shift: what instant-off sleep adds on the peak-sized cluster,
	// whose servers idle hard at night. Setup of half a second, deep sleep
	// at 20 W per server.
	sleep := base
	sleep.Sleep = []*clusterq.SleepConfig{
		{Setup: clusterq.ExpDist(0.5), SleepPower: 20},
		{Setup: clusterq.ExpDist(0.5), SleepPower: 20},
		{Setup: clusterq.ExpDist(0.5), SleepPower: 20},
	}
	fmt.Println("\nadding instant-off sleep to the peak-sized cluster:")
	show("peak-sized + sleep", peakAtMean, sleep)
	fmt.Println("\nsleep trims the idle floor the peak sizing pays for at night, at a")
	fmt.Println("sub-second setup penalty; the reactive controller attacks the same")
	fmt.Println("waste from the frequency side. They compose.")
}
