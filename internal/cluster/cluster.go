// Package cluster models the paper's system: a service provider's collection
// of cluster computing resources (tiers of DVFS-capable servers) hosting an
// enterprise application for multiple priority classes of business customers,
// each with its own arrival rate and SLA.
//
// It combines internal/queueing (delays) and internal/power (energy) into the
// paper's first contribution: computing the average end-to-end delay and the
// average energy consumption per class (Evaluate), the substrate every
// optimization in internal/core runs on. Both go through one per-tier model
// (TierModel): Evaluate sums its terms over the tiers, and the optimizers'
// dual decomposition minimizes them tier by tier.
package cluster

import (
	"fmt"
	"math"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// SLA is the service-level agreement of one customer class: the guarantees
// the provider sells and the price the customer pays. Zero-valued fields mean
// "no such guarantee".
type SLA struct {
	// MaxMeanDelay bounds the class's mean end-to-end delay (seconds).
	MaxMeanDelay float64
	// PercentileDelay together with Percentile bounds the tail:
	// P(D ≤ PercentileDelay) ≥ Percentile, e.g. 95% of requests in 2 s.
	PercentileDelay float64
	Percentile      float64
	// PricePerRequest is the fee the customer pays per served request;
	// higher-paying classes receive higher priority.
	PricePerRequest float64
}

// HasMeanBound reports whether the SLA carries a mean-delay guarantee.
func (s SLA) HasMeanBound() bool { return s.MaxMeanDelay > 0 }

// HasPercentileBound reports whether the SLA carries a tail guarantee.
func (s SLA) HasPercentileBound() bool {
	return s.PercentileDelay > 0 && s.Percentile > 0 && s.Percentile < 1
}

// Validate checks the SLA's internal consistency.
func (s SLA) Validate() error {
	for _, v := range [...]float64{s.MaxMeanDelay, s.PercentileDelay, s.Percentile} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: SLA bound %g is not a finite number", v)
		}
	}
	if s.MaxMeanDelay < 0 || s.PercentileDelay < 0 || s.PricePerRequest < 0 {
		return fmt.Errorf("cluster: negative SLA field")
	}
	if s.Percentile < 0 || s.Percentile >= 1 {
		if s.Percentile != 0 {
			return fmt.Errorf("cluster: percentile %g out of [0,1)", s.Percentile)
		}
	}
	if (s.Percentile > 0) != (s.PercentileDelay > 0) {
		return fmt.Errorf("cluster: percentile bound needs both a level and a delay")
	}
	return nil
}

// Class is one customer class. Classes are ordered by priority: index 0 in
// Cluster.Classes is served first at every tier.
type Class struct {
	Name   string
	Lambda float64 // Poisson arrival rate, requests per second
	SLA    SLA
}

// Tier is one stage of the enterprise application: a pool of identical
// DVFS-capable servers with a class-demand profile, a power model, and a
// provisioning cost.
type Tier struct {
	Name    string
	Servers int
	Speed   float64 // current operating speed, work units per second
	// MinSpeed and MaxSpeed bound the DVFS range the optimizers explore.
	MinSpeed, MaxSpeed float64
	Discipline         queueing.Discipline
	Power              power.Model
	// CostPerServer is the provisioning cost of one server at this tier
	// (used by the C4 cost minimization), in dollars per unit time.
	CostPerServer float64
	// Availability is the steady-state fraction of time each server is up,
	// A = MTBF/(MTBF+MTTR), in (0, 1]. Zero means "always up". The analytic
	// model folds it in as availability-weighted capacity — the tier serves
	// at Speed·A — which is exact in the mean but optimistic in the tail
	// (see DESIGN.md "Failure model"); the simulator injects explicit
	// breakdown/repair cycles instead via sim.Options.Failures.
	Availability float64
	// Demands[k] is the work class k brings to this tier.
	Demands []queueing.Demand
}

// EffectiveAvailability returns the tier's availability with the zero value
// resolved to 1 (always up).
func (t *Tier) EffectiveAvailability() float64 {
	if t.Availability == 0 {
		return 1
	}
	return t.Availability
}

// Validate checks the tier against the number of classes.
func (t *Tier) Validate(numClasses int) error {
	if t.Power == nil {
		return fmt.Errorf("cluster: tier %q has no power model", t.Name)
	}
	if t.CostPerServer < 0 {
		return fmt.Errorf("cluster: tier %q has negative cost", t.Name)
	}
	if t.MinSpeed < 0 || (t.MaxSpeed > 0 && t.MaxSpeed < t.MinSpeed) {
		return fmt.Errorf("cluster: tier %q has invalid speed range [%g,%g]", t.Name, t.MinSpeed, t.MaxSpeed)
	}
	if t.MaxSpeed > 0 && (t.Speed < t.MinSpeed || t.Speed > t.MaxSpeed) {
		return fmt.Errorf("cluster: tier %q speed %g outside [%g,%g]", t.Name, t.Speed, t.MinSpeed, t.MaxSpeed)
	}
	// The negated comparison also rejects NaN.
	if t.Availability != 0 && (!(t.Availability > 0) || t.Availability > 1) {
		return fmt.Errorf("cluster: tier %q availability %g out of (0,1]", t.Name, t.Availability)
	}
	return t.model(new(queueing.Station)).Station.Validate(numClasses)
}

// Clone returns a deep copy of the tier.
func (t *Tier) Clone() *Tier {
	c := *t
	c.Demands = append([]queueing.Demand(nil), t.Demands...)
	return &c
}

// Cluster is the full system: tiers, classes, and per-class routes.
type Cluster struct {
	Tiers   []*Tier
	Classes []Class
	// Routes[k] lists the tier indices class k visits in order; nil means
	// every class traverses all tiers in order (the tandem default).
	Routes [][]int
	// Routing optionally gives a class a probabilistic (Markov) routing
	// chain instead of a deterministic route — retries, branches, loops.
	// A non-nil Routing[k] takes precedence over Routes[k]; length must
	// equal the class count when set.
	Routing []*queueing.ClassRouting
}

// Lambdas returns the per-class arrival-rate vector.
func (c *Cluster) Lambdas() []float64 {
	l := make([]float64, len(c.Classes))
	for i, cl := range c.Classes {
		l[i] = cl.Lambda
	}
	return l
}

// TotalLambda returns the aggregate arrival rate.
func (c *Cluster) TotalLambda() float64 {
	var s float64
	for _, cl := range c.Classes {
		s += cl.Lambda
	}
	return s
}

// Route returns class k's effective route: Routes[k], or every tier in
// order when Routes is nil (the tandem default).
func (c *Cluster) Route(k int) []int {
	if c.Routes != nil {
		return c.Routes[k]
	}
	r := make([]int, len(c.Tiers))
	for j := range r {
		r[j] = j
	}
	return r
}

// routing returns class k's probabilistic chain, or nil when it follows its
// deterministic route.
func (c *Cluster) routing(k int) *queueing.ClassRouting {
	if c.Routing == nil || k >= len(c.Routing) {
		return nil
	}
	return c.Routing[k]
}

// VisitRates returns the expected number of visits class k makes to each
// tier: occurrence counts along its route, or the traffic-equation solution
// of its routing chain. Invalid chains yield all-zero rates (Validate
// reports the underlying error).
func (c *Cluster) VisitRates(k int) []float64 {
	v := make([]float64, len(c.Tiers))
	c.visitRates(k, v)
	return v
}

// visitRates writes VisitRates(k) into v, one entry per tier.
func (c *Cluster) visitRates(k int, v []float64) {
	clear(v)
	if r := c.routing(k); r != nil {
		if rv, err := r.VisitRates(); err == nil {
			copy(v, rv)
		}
		return
	}
	if c.Routes != nil {
		for _, j := range c.Routes[k] {
			v[j]++
		}
		return
	}
	for j := range v {
		v[j]++
	}
}

// Validate checks the full configuration.
func (c *Cluster) Validate() error {
	if len(c.Tiers) == 0 {
		return fmt.Errorf("cluster: no tiers")
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("cluster: no classes")
	}
	for i, cl := range c.Classes {
		if cl.Lambda < 0 || math.IsNaN(cl.Lambda) || math.IsInf(cl.Lambda, 0) {
			return fmt.Errorf("cluster: class %d (%s) invalid arrival rate %g", i, cl.Name, cl.Lambda)
		}
		if err := cl.SLA.Validate(); err != nil {
			return fmt.Errorf("class %d (%s): %w", i, cl.Name, err)
		}
	}
	if math.IsInf(c.TotalLambda(), 1) {
		return fmt.Errorf("cluster: total arrival rate overflows")
	}
	for _, t := range c.Tiers {
		if err := t.Validate(len(c.Classes)); err != nil {
			return err
		}
	}
	if c.Routes != nil && len(c.Routes) != len(c.Classes) {
		return fmt.Errorf("cluster: %d routes for %d classes", len(c.Routes), len(c.Classes))
	}
	if c.Routing != nil && len(c.Routing) != len(c.Classes) {
		return fmt.Errorf("cluster: %d routing chains for %d classes", len(c.Routing), len(c.Classes))
	}
	for k := range c.Classes {
		if r := c.routing(k); r != nil {
			if err := r.Validate(len(c.Tiers)); err != nil {
				return fmt.Errorf("class %d: %w", k, err)
			}
			continue
		}
		route := c.Route(k)
		if len(route) == 0 {
			return fmt.Errorf("cluster: class %d has an empty route", k)
		}
		for _, j := range route {
			if j < 0 || j >= len(c.Tiers) {
				return fmt.Errorf("cluster: class %d route references tier %d of %d", k, j, len(c.Tiers))
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the cluster. Power models are shared (they
// are immutable).
func (c *Cluster) Clone() *Cluster {
	n := &Cluster{
		Tiers:   make([]*Tier, len(c.Tiers)),
		Classes: append([]Class(nil), c.Classes...),
	}
	for i, t := range c.Tiers {
		n.Tiers[i] = t.Clone()
	}
	if c.Routes != nil {
		n.Routes = make([][]int, len(c.Routes))
		for i, r := range c.Routes {
			n.Routes[i] = append([]int(nil), r...)
		}
	}
	if c.Routing != nil {
		n.Routing = make([]*queueing.ClassRouting, len(c.Routing))
		for i, r := range c.Routing {
			if r == nil {
				continue
			}
			nr := &queueing.ClassRouting{Entry: append([]float64(nil), r.Entry...)}
			for _, row := range r.Next {
				nr.Next = append(nr.Next, append([]float64(nil), row...))
			}
			n.Routing[i] = nr
		}
	}
	return n
}

// Speeds returns the current per-tier speed vector.
func (c *Cluster) Speeds() []float64 {
	s := make([]float64, len(c.Tiers))
	for i, t := range c.Tiers {
		s[i] = t.Speed
	}
	return s
}

// SetSpeeds assigns per-tier speeds (must match the tier count).
func (c *Cluster) SetSpeeds(s []float64) error {
	if len(s) != len(c.Tiers) {
		return fmt.Errorf("cluster: %d speeds for %d tiers", len(s), len(c.Tiers))
	}
	for i, t := range c.Tiers {
		t.Speed = s[i]
	}
	return nil
}

// SpeedBounds returns the per-tier (lo, hi) DVFS ranges for the optimizers:
// lo is lifted to just above the stability minimum (a speed below it can
// never be optimal), hi is the configured MaxSpeed or a generous multiple of
// the stability minimum when unset. A configured MaxSpeed is never exceeded;
// if a tier cannot be stabilized even at MaxSpeed, lo is pinned to hi and the
// tier's delays stay +Inf (the optimizers then report infeasibility).
func (c *Cluster) SpeedBounds() (lo, hi []float64) {
	return ModelSpeedBounds(c, c.TierModels())
}

// ModelSpeedBounds is SpeedBounds over tier models already built: ms must be
// the models TierModels returns for c (or for a cluster with c's tiers,
// classes and routes). A solver that keeps a cluster's models reads its
// bounds from them without building the models again.
func ModelSpeedBounds(c *Cluster, ms []TierModel) (lo, hi []float64) {
	lo = make([]float64, len(c.Tiers))
	hi = make([]float64, len(c.Tiers))
	for i, m := range ms {
		// MinSpeedForStability is in station-speed units; the station runs at
		// Speed·A, so the tier's nominal speed must clear stab/A.
		stab := m.Station.MinSpeedForStability(m.Arrivals) / m.Avail
		t := c.Tiers[i]
		lo[i] = t.MinSpeed
		if lo[i] < stab*1.001 {
			lo[i] = stab * 1.001
		}
		hi[i] = t.MaxSpeed
		if hi[i] <= 0 {
			hi[i] = math.Max(stab*20, lo[i]*10)
		}
		if lo[i] > hi[i] {
			lo[i] = hi[i]
		}
	}
	return lo, hi
}
