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
	Breakdown *DelayBreakdown
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

// TierModel is one tier's separable share of the C1 model. Under the
// Poisson-arrival coupling a tier's response times depend only on its own
// speed, so every delay and power the model reports is a sum of per-tier
// terms; Evaluate and the optimizers in internal/core compute those terms
// through Eval alone. A model depends only on the cluster, so it is built
// once per cluster (TierModels); evaluating it at a speed rewrites the
// station's speed and nothing else.
type TierModel struct {
	// Station is the tier's queueing station, serving at the
	// availability-degraded speed Speed·A.
	Station *queueing.Station
	// Visits[k] is class k's expected number of visits v_kj to the tier.
	Visits []float64
	// Arrivals[k] is the class-k arrival rate at the tier, λ_k·v_kj.
	Arrivals []float64
	Power    power.Model
	// Avail is the tier's availability A (EffectiveAvailability).
	Avail float64
}

// TierModels returns the cluster's per-tier models at its current speeds,
// solving each class's traffic equations once.
func (c *Cluster) TierModels() []TierModel {
	visits := make([][]float64, len(c.Classes))
	for k := range visits {
		visits[k] = c.VisitRates(k)
	}
	ms := make([]TierModel, len(c.Tiers))
	for j, t := range c.Tiers {
		m := &ms[j]
		*m = t.model()
		m.Visits, m.Arrivals = make([]float64, len(c.Classes)), make([]float64, len(c.Classes))
		for k, cl := range c.Classes {
			m.Visits[k] = visits[k][j]
			m.Arrivals[k] = cl.Lambda * m.Visits[k]
		}
	}
	return ms
}

// model returns the tier's model at its current speed, without traffic.
func (t *Tier) model() TierModel {
	m := TierModel{
		Station: &queueing.Station{
			Name: t.Name, Servers: t.Servers, Discipline: t.Discipline, Demands: t.Demands,
		},
		Power: t.Power,
		Avail: t.EffectiveAvailability(),
	}
	m.at(t.Speed)
	return m
}

// at sets the station to nominal speed s: a pool whose servers are each up
// a fraction A of the time serves at s·A, its mean effective capacity.
func (m *TierModel) at(s float64) { m.Station.Speed = s * m.Avail }

// Eval returns the tier's per-class mean waiting and response times per
// visit at nominal speed s, with its utilization and power. The power's
// static part is already scaled by A.
func (m *TierModel) Eval(s float64) (wait, resp []float64, tm TierMetrics, err error) {
	m.at(s)
	if wait, resp, err = m.Station.ResponseTimes(m.Arrivals); err != nil {
		return nil, nil, tm, err
	}
	// rho is the per-up-server busy fraction (the station runs at the
	// availability-degraded capacity s·A). The fraction of *nominal*
	// servers busy is rho·A, which is what dynamic power scales with at
	// the raw operating speed; failed servers draw nothing, so the static
	// floor also shrinks by A.
	rho := m.Station.Utilization(m.Arrivals)
	br := power.StationBreakdown(m.Power, s, m.Station.Servers, rho*m.Avail)
	br.Static *= m.Avail
	return wait, resp, TierMetrics{Name: m.Station.Name, Utilization: rho, Power: br}, nil
}

// DelayBreakdown holds the per-class, per-tier mean response times plus
// end-to-end totals.
type DelayBreakdown struct {
	// PerStation[k][j] is the mean response time of one class-k visit to
	// tier j (0 for tiers the class never visits).
	PerStation [][]float64
	// Wait[k][j] is the waiting component of PerStation.
	Wait [][]float64
	// EndToEnd[k] is Σ_j v_kj·PerStation[k][j] over the tiers class k
	// visits.
	EndToEnd []float64
}

// Evaluate computes the metrics of the cluster at its current speeds: each
// tier's model evaluated at Tier.Speed, summed over tiers. Downstream
// arrival processes are approximated as Poisson with the tier's arrival
// rate (exact under product form, an approximation under priority
// scheduling that the simulator quantifies), and a class visiting a
// saturated tier has an infinite delay.
func Evaluate(c *Cluster) (*Metrics, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	nk := len(c.Classes)
	bd := &DelayBreakdown{
		PerStation: make([][]float64, nk),
		Wait:       make([][]float64, nk),
		EndToEnd:   make([]float64, nk),
	}
	for k := range bd.PerStation {
		bd.PerStation[k] = make([]float64, len(c.Tiers))
		bd.Wait[k] = make([]float64, len(c.Tiers))
	}
	m := &Metrics{
		Delay:            bd.EndToEnd,
		EnergyPerRequest: make([]float64, nk),
		Tiers:            make([]TierMetrics, len(c.Tiers)),
		Breakdown:        bd,
	}
	ms := c.TierModels()
	for j, t := range c.Tiers {
		wait, resp, tm, err := ms[j].Eval(t.Speed)
		if err != nil {
			return nil, fmt.Errorf("station %d (%s): %w", j, t.Name, err)
		}
		for k := range resp {
			bd.PerStation[k][j], bd.Wait[k][j] = resp[k], wait[k]
		}
		m.Tiers[j] = tm
		m.StaticPower += tm.Power.Static
		m.DynamicPower += tm.Power.Dynamic
	}
	m.TotalPower = m.StaticPower + m.DynamicPower

	for k := range c.Classes {
		var d, e float64
		for j, t := range c.Tiers {
			visits := ms[j].Visits[k]
			if visits <= 0 {
				continue
			}
			d += visits * bd.PerStation[k][j]
			svc := t.Demands[k].Work / t.Speed
			e += visits * power.RequestEnergy(t.Power, t.Speed, svc)
		}
		bd.EndToEnd[k] = d
		m.EnergyPerRequest[k] = e
	}
	m.WeightedDelay = queueing.MeanDelayAllClasses(bd.EndToEnd, c.Lambdas())

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
	if c.routing(k) != nil {
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
