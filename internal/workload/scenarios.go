// Package workload constructs the named scenarios the experiments and
// examples run on: the canonical three-tier enterprise application with
// gold/silver/bronze customer classes, and scalable J-tier/K-class variants
// for the solver-efficiency experiments. Parameter values are typical of the
// SLA-based cluster-allocation literature (the paper's own tables are not
// available; see DESIGN.md).
package workload

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// Enterprise3Tier builds the canonical scenario: a web → app → db pipeline
// hosting three priority classes (gold, silver, bronze). loadFactor scales
// all arrival rates; 1.0 gives a moderately loaded system (~65% at the
// bottleneck with default speeds), values toward 1.5 approach saturation at
// the default speed of 4.
func Enterprise3Tier(loadFactor float64) *cluster.Cluster {
	if loadFactor <= 0 {
		loadFactor = 1
	}
	mustPL := func(idle, kappa, gamma float64) power.Model {
		m, err := power.NewPowerLaw(idle, kappa, gamma)
		if err != nil {
			panic(fmt.Sprintf("workload: bad power model: %v", err))
		}
		return m
	}
	web := &cluster.Tier{
		Name: "web", Servers: 2, Speed: 4, MinSpeed: 1, MaxSpeed: 8,
		Discipline: queueing.NonPreemptive,
		Power:      mustPL(90, 0.35, 3), CostPerServer: 1,
		Demands: []queueing.Demand{
			{Work: 0.6, CV2: 1}, {Work: 0.8, CV2: 1}, {Work: 1.0, CV2: 1},
		},
	}
	app := &cluster.Tier{
		Name: "app", Servers: 2, Speed: 4, MinSpeed: 1, MaxSpeed: 8,
		Discipline: queueing.NonPreemptive,
		Power:      mustPL(110, 0.40, 3), CostPerServer: 2,
		Demands: []queueing.Demand{
			{Work: 1.0, CV2: 1}, {Work: 1.3, CV2: 1}, {Work: 1.6, CV2: 1},
		},
	}
	db := &cluster.Tier{
		Name: "db", Servers: 2, Speed: 4, MinSpeed: 1, MaxSpeed: 8,
		Discipline: queueing.NonPreemptive,
		Power:      mustPL(130, 0.50, 3), CostPerServer: 4,
		// Database work is more variable (mixed point/range queries).
		Demands: []queueing.Demand{
			{Work: 0.8, CV2: 2}, {Work: 1.2, CV2: 2}, {Work: 2.0, CV2: 2},
		},
	}
	return &cluster.Cluster{
		Tiers: []*cluster.Tier{web, app, db},
		Classes: []cluster.Class{
			{Name: "gold", Lambda: 0.9 * loadFactor,
				SLA: cluster.SLA{MaxMeanDelay: 1.6, PricePerRequest: 5}},
			{Name: "silver", Lambda: 1.2 * loadFactor,
				SLA: cluster.SLA{MaxMeanDelay: 3.0, PricePerRequest: 2}},
			{Name: "bronze", Lambda: 1.5 * loadFactor,
				SLA: cluster.SLA{MaxMeanDelay: 6.0, PricePerRequest: 1}},
		},
	}
}

// Enterprise3TierHeavyDB is the asymmetric variant of the canonical scenario
// used by the optimization-frontier experiments: the database tier carries
// double work but has DVFS headroom (MaxSpeed 24 against 8 elsewhere). On a
// symmetric cluster the optimal speed allocation IS uniform and the paper's
// optimizer coincides with the naive single-knob baseline; asymmetry is where
// per-tier optimization earns its keep.
func Enterprise3TierHeavyDB(loadFactor float64) *cluster.Cluster {
	c := Enterprise3Tier(loadFactor)
	db := c.Tiers[2]
	for k := range db.Demands {
		db.Demands[k].Work *= 2
	}
	db.MaxSpeed = 24
	db.Speed = 8
	return c
}

// Scalable builds a symmetric cluster with j tiers and k classes for the
// solver-efficiency experiments: identical tiers, class demand factors spread
// linearly from 0.8 to 1.4, per-class arrival rates chosen so the bottleneck
// utilization at default speeds is about 0.6·loadFactor.
func Scalable(j, k int, loadFactor float64) *cluster.Cluster {
	if j < 1 || k < 1 {
		panic(fmt.Sprintf("workload: invalid scalable shape %d×%d", j, k))
	}
	if loadFactor <= 0 {
		loadFactor = 1
	}
	pm, err := power.NewPowerLaw(100, 0.4, 3)
	if err != nil {
		panic(err)
	}
	demands := make([]queueing.Demand, k)
	var totalWork float64
	for i := range demands {
		f := 0.8
		if k > 1 {
			f = 0.8 + 0.6*float64(i)/float64(k-1)
		}
		demands[i] = queueing.Demand{Work: f, CV2: 1}
		totalWork += f
	}
	const defaultSpeed, servers = 4.0, 2
	// Per-class λ equalized so Σ λ·work = 0.6·loadFactor·capacity.
	lam := 0.6 * loadFactor * defaultSpeed * servers / totalWork

	tiers := make([]*cluster.Tier, j)
	for i := range tiers {
		tiers[i] = &cluster.Tier{
			Name: fmt.Sprintf("tier%d", i), Servers: servers, Speed: defaultSpeed,
			MinSpeed: 1, MaxSpeed: 8,
			Discipline: queueing.NonPreemptive, Power: pm, CostPerServer: 1 + float64(i),
			Demands: append([]queueing.Demand(nil), demands...),
		}
	}
	classes := make([]cluster.Class, k)
	for i := range classes {
		classes[i] = cluster.Class{
			Name:   fmt.Sprintf("class%d", i),
			Lambda: lam,
			SLA:    cluster.SLA{MaxMeanDelay: 2 * float64(i+1), PricePerRequest: float64(k - i)},
		}
	}
	return &cluster.Cluster{Tiers: tiers, Classes: classes}
}

// ScaleArrivals returns a clone with every class's arrival rate multiplied
// by f.
func ScaleArrivals(c *cluster.Cluster, f float64) *cluster.Cluster {
	out := c.Clone()
	for i := range out.Classes {
		out.Classes[i].Lambda *= f
	}
	return out
}

// CapacityFraction returns the clone of c loaded to the given fraction of its
// bottleneck capacity at current speeds: it rescales arrival rates so the
// bottleneck utilization equals frac.
func CapacityFraction(c *cluster.Cluster, frac float64) *cluster.Cluster {
	u := math.Inf(-1)
	for _, m := range c.TierModels() {
		if r := m.Utilization(); r > u {
			u = r
		}
	}
	if u <= 0 {
		return c.Clone()
	}
	return ScaleArrivals(c, frac/u)
}
