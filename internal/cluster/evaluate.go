package cluster

import (
	"fmt"
	"math"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// TierMetrics reports the analytical steady state of one tier.
type TierMetrics struct {
	Name        string
	Utilization float64 // per-server utilization ρ
	Power       power.Breakdown
}

// Metrics is the output of Evaluate: the paper's C1 quantities — per-class
// average end-to-end delay and average energy consumption — plus the
// aggregates the optimization problems constrain.
type Metrics struct {
	// Delay[k] is class k's mean end-to-end response time (+Inf if any
	// tier on its route is saturated).
	Delay []float64
	// WeightedDelay is the arrival-rate-weighted mean delay over classes —
	// the paper's "all class" delay objective.
	WeightedDelay float64
	// EnergyPerRequest[k] is the dynamic energy one class-k request
	// induces along its route (Joules).
	EnergyPerRequest []float64
	// TotalPower is the cluster's average power draw (Watts): the paper's
	// "average energy consumption" per unit time; static + dynamic.
	TotalPower float64
	// StaticPower and DynamicPower decompose TotalPower.
	StaticPower, DynamicPower float64
	// EnergyPerJob is TotalPower divided by the aggregate throughput:
	// average energy the cluster spends per served request, amortizing
	// the idle floor (J/request). NaN with zero traffic.
	EnergyPerJob float64
	// Tiers holds per-tier utilization and power.
	Tiers []TierMetrics
	// Breakdown holds the queueing detail (per-class per-station waits).
	Breakdown *queueing.DelayBreakdown
}

// Stable reports whether every class has a finite delay.
func (m *Metrics) Stable() bool {
	for _, d := range m.Delay {
		if math.IsInf(d, 1) {
			return false
		}
	}
	return true
}

// Evaluate computes the metrics of the cluster at its current speeds. It is
// the analytical core: delays from the priority queueing network, power from
// the per-tier utilization law.
func Evaluate(c *Cluster) (*Metrics, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	lam := c.Lambdas()
	net := c.Network()
	bd, err := net.EndToEndDelays(lam)
	if err != nil {
		return nil, err
	}

	m := &Metrics{
		Delay:            bd.EndToEnd,
		WeightedDelay:    queueing.MeanDelayAllClasses(bd.EndToEnd, lam),
		EnergyPerRequest: make([]float64, len(c.Classes)),
		Tiers:            make([]TierMetrics, len(c.Tiers)),
		Breakdown:        bd,
	}

	for j, t := range c.Tiers {
		// rho is the per-up-server busy fraction (the station runs at the
		// availability-degraded capacity Speed·A). The fraction of *nominal*
		// servers busy is rho·A, which is what dynamic power scales with at
		// the raw operating speed; failed servers draw nothing, so the static
		// floor also shrinks by A.
		a := t.EffectiveAvailability()
		rho := net.Stations[j].Utilization(TierArrivals(c, j, lam))
		br := power.StationBreakdown(t.Power, t.Speed, t.Servers, rho*a)
		br.Static *= a
		m.Tiers[j] = TierMetrics{Name: t.Name, Utilization: rho, Power: br}
		m.StaticPower += br.Static
		m.DynamicPower += br.Dynamic
	}
	m.TotalPower = m.StaticPower + m.DynamicPower

	for k := range c.Classes {
		var e float64
		for j, visits := range c.VisitRates(k) {
			if visits <= 0 {
				continue
			}
			t := c.Tiers[j]
			svc := t.Demands[k].Work / t.Speed
			e += visits * power.RequestEnergy(t.Power, t.Speed, svc)
		}
		m.EnergyPerRequest[k] = e
	}

	if tot := c.TotalLambda(); tot > 0 {
		m.EnergyPerJob = m.TotalPower / tot
	} else {
		m.EnergyPerJob = math.NaN()
	}
	return m, nil
}

// DelayQuantile approximates the p-quantile of class k's end-to-end delay
// from the evaluated per-station means, via the hypoexponential stage
// approximation (DelayQuantileAt). It must be called with the Metrics
// produced by Evaluate on the same cluster.
func DelayQuantile(c *Cluster, m *Metrics, k int, p float64) (float64, error) {
	if m.Breakdown == nil {
		return 0, fmt.Errorf("cluster: metrics carry no breakdown")
	}
	if k < 0 || k >= len(c.Classes) {
		return 0, fmt.Errorf("cluster: class index %d out of range", k)
	}
	return DelayQuantileAt(c, k, m.Breakdown.PerStation[k], p, nil)
}

// DelayQuantileAt returns the p-quantile of class k's end-to-end delay given
// its mean response time per visit at every tier, resp[j], under the
// hypoexponential stage approximation. Deterministic routes contribute one
// exponential stage per visit; a probabilistic routing contributes each
// visited tier's expected total v_j·resp[j] as a single stage — a coarser
// approximation (the visit count is itself random), which is why percentile
// SLAs under routing chains deserve the simulator cross-check. A non-nil
// grad receives ∂Q/∂resp[j] for every tier, by central differences
// 1e-6·resp[j] wide; it is 0 at tiers the class does not visit and
// everywhere when the quantile is +Inf. Routes do not depend on speeds, so c
// may be any cluster with class k's routing.
func DelayQuantileAt(c *Cluster, k int, resp []float64, p float64, grad []float64) (float64, error) {
	var tiers []int
	var mult []float64
	if c.Routing != nil && k < len(c.Routing) && c.Routing[k] != nil {
		for j, visits := range c.VisitRates(k) {
			if visits > 0 {
				tiers, mult = append(tiers, j), append(mult, visits)
			}
		}
	} else {
		for _, j := range c.Route(k) {
			tiers, mult = append(tiers, j), append(mult, 1)
		}
	}
	means := make([]float64, len(tiers))
	quantile := func(r []float64) (float64, error) {
		for i, j := range tiers {
			means[i] = mult[i] * r[j]
		}
		return queueing.EndToEndQuantile(means, p)
	}
	clear(grad)
	q, err := quantile(resp)
	if grad == nil || err != nil || math.IsInf(q, 1) {
		return q, err
	}
	r := append([]float64(nil), resp...)
	for _, j := range tiers {
		if grad[j] != 0 {
			continue // a repeat visit; the tier is done
		}
		h := 1e-6 * resp[j]
		r[j] = resp[j] + h
		up, _ := quantile(r)
		r[j] = resp[j] - h
		down, _ := quantile(r)
		r[j] = resp[j]
		grad[j] = (up - down) / (2 * h)
	}
	return q, nil
}

// SLAReport records, per class, whether each SLA guarantee holds under the
// analytical model.
type SLAReport struct {
	Class          string
	MeanDelay      float64
	MeanBound      float64 // 0 when absent
	MeanOK         bool
	TailDelay      float64 // achieved quantile at the SLA percentile (0 when absent)
	TailBound      float64
	TailPercentile float64
	TailOK         bool
}

// Satisfied reports whether every present guarantee holds.
func (r SLAReport) Satisfied() bool { return r.MeanOK && r.TailOK }

// CheckSLAs evaluates every class's SLA against the analytical model.
func CheckSLAs(c *Cluster, m *Metrics) ([]SLAReport, error) {
	reports := make([]SLAReport, len(c.Classes))
	for k, cl := range c.Classes {
		r := SLAReport{Class: cl.Name, MeanDelay: m.Delay[k], MeanOK: true, TailOK: true}
		if cl.SLA.HasMeanBound() {
			r.MeanBound = cl.SLA.MaxMeanDelay
			r.MeanOK = m.Delay[k] <= cl.SLA.MaxMeanDelay
		}
		if cl.SLA.HasPercentileBound() {
			q, err := DelayQuantile(c, m, k, cl.SLA.Percentile)
			if err != nil {
				return nil, err
			}
			r.TailDelay = q
			r.TailBound = cl.SLA.PercentileDelay
			r.TailPercentile = cl.SLA.Percentile
			r.TailOK = q <= cl.SLA.PercentileDelay
		}
		reports[k] = r
	}
	return reports, nil
}

// TotalCost returns the provisioning cost of the cluster: Σ tiers
// servers × cost-per-server. This is the objective of the paper's C4
// problem (minimize the total cost of allocated resources).
func TotalCost(c *Cluster) float64 {
	var cost float64
	for _, t := range c.Tiers {
		cost += float64(t.Servers) * t.CostPerServer
	}
	return cost
}

// Revenue returns the per-unit-time revenue Σ λ_k × price_k.
func Revenue(c *Cluster) float64 {
	var rev float64
	for _, cl := range c.Classes {
		rev += cl.Lambda * cl.SLA.PricePerRequest
	}
	return rev
}
