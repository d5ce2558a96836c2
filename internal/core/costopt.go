package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
	"clusterq/internal/queueing"
)

// CostOptions configures MinimizeCost (problem C4).
type CostOptions struct {
	// MaxServersPerTier caps the search (default 64).
	MaxServersPerTier int
	// SkipSpeedTuning leaves every tier at its maximum speed after sizing.
	// By default the speeds are lowered to the energy-minimal point that
	// still meets all SLAs. EnergyPrice overrides it.
	SkipSpeedTuning bool
	// SafetyMargin tightens every SLA bound by this fraction during
	// planning (e.g. 0.05 plans against 95% of each bound) so the plan
	// keeps headroom against model error; the returned solution reports
	// compliance against the ORIGINAL bounds. Default 0.
	SafetyMargin float64
	// Availability, when in (0, 1], multiplies every tier's effective
	// availability during planning — sizing the fleet as if servers were
	// additionally down that often — so the plan keeps capacity headroom
	// against breakdowns. Like SafetyMargin, the returned solution reports
	// metrics and compliance at the ORIGINAL tier availabilities. Default 0
	// (off); 1 is an explicit no-op.
	Availability float64
	// EnergyPrice, when positive, extends the objective to total cost of
	// ownership: Σ servers·price + EnergyPrice·P̄ (in $ per watt per unit
	// time). With energy priced, buying MORE servers and running them
	// slower can be cheaper than a lean fleet at high DVFS speeds — the
	// classic consolidation-versus-scaling trade-off; a hill-climbing pass
	// over server counts (with speed re-tuning per candidate) explores it.
	// Implies speed tuning regardless of SkipSpeedTuning.
	EnergyPrice float64
}

// MinimizeCost solves the paper's C4 problem: find the cheapest server
// allocation (integer count per tier) — and accompanying DVFS speeds — such
// that every priority class's SLA is guaranteed:
//
//	min_{c, s}  Σ_j c_j · price_j
//	s.t.        D_k(c, s)    ≤ MaxMeanDelay_k        for every mean-bounded k
//	            Q_k(γ_k; c, s) ≤ PercentileDelay_k   for every tail-bounded k
//	            stability, s ∈ [s_min, s_max], c_j ∈ ℕ⁺
//
// Delays are monotone decreasing in both server counts and speeds, so a
// count vector is feasible iff the SLAs hold at maximum speed. The solver
// uses greedy marginal allocation: grow from the stability minimum, each step
// adding the server with the best violation reduction per dollar; then a
// removal polish pass; then (optionally) lower the speeds to the
// energy-minimal feasible point.
func MinimizeCost(c *cluster.Cluster, o CostOptions) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	anyBound := false
	for _, cl := range c.Classes {
		if cl.SLA.HasMeanBound() || cl.SLA.HasPercentileBound() {
			anyBound = true
		}
	}
	if !anyBound {
		return nil, fmt.Errorf("core: no class carries an SLA bound; cost minimization is unconstrained")
	}
	maxServers := o.MaxServersPerTier
	if maxServers <= 0 {
		maxServers = 64
	}
	if o.SafetyMargin < 0 || o.SafetyMargin >= 1 {
		return nil, fmt.Errorf("core: safety margin %g out of [0, 1)", o.SafetyMargin)
	}
	// The negated comparison also rejects NaN.
	if o.Availability != 0 && (!(o.Availability > 0) || o.Availability > 1) {
		return nil, fmt.Errorf("core: planning availability %g out of (0, 1]", o.Availability)
	}

	work := c.Clone()
	// Plan against tightened bounds and derated availabilities; compliance
	// is reported against the caller's original configuration (restored
	// before returning).
	if o.SafetyMargin > 0 {
		for k := range work.Classes {
			sla := &work.Classes[k].SLA
			sla.MaxMeanDelay *= 1 - o.SafetyMargin
			sla.PercentileDelay *= 1 - o.SafetyMargin
		}
	}
	deratedAvail := o.Availability != 0 && o.Availability < 1
	if deratedAvail {
		for _, t := range work.Tiers {
			t.Availability = t.EffectiveAvailability() * o.Availability
		}
	}
	// restorePlanning undoes the planning-time tightenings on the solution
	// cluster so the reported metrics describe the system as configured.
	restorePlanning := func(w *cluster.Cluster) {
		if o.SafetyMargin > 0 {
			for k := range w.Classes {
				w.Classes[k].SLA = c.Classes[k].SLA
			}
		}
		if deratedAvail {
			for j := range w.Tiers {
				w.Tiers[j].Availability = c.Tiers[j].Availability
			}
		}
	}
	evals := 0

	// violationAt is slaViolation, counted in the result's evaluations.
	violationAt := func(w *cluster.Cluster) float64 {
		evals++
		return slaViolation(w)
	}

	startServers(work, maxServers)

	// Greedy growth to feasibility. The violation after a step is the
	// winning candidate's, already evaluated.
	added := 0
	for cur := violationAt(work); cur > 0; {
		if math.IsInf(cur, 1) {
			cur = 1e6 // treat as a huge violation so any finite result wins
		}
		bestTier, bestGain, bestV := -1, 0.0, 0.0
		for j, t := range work.Tiers {
			if t.Servers >= maxServers {
				continue
			}
			t.Servers++
			v := violationAt(work)
			t.Servers--
			if math.IsInf(v, 1) {
				continue
			}
			gain := (cur - v) / math.Max(t.CostPerServer, 1e-9)
			if gain > bestGain {
				bestTier, bestGain, bestV = j, gain, v
			}
		}
		if bestTier < 0 {
			// No single server helps: add to the hottest tier and keep
			// going (violation can be flat until a bottleneck clears).
			bestTier = hottestTier(work)
			if work.Tiers[bestTier].Servers >= maxServers {
				return nil, fmt.Errorf("core: SLAs unreachable within %d servers per tier", maxServers)
			}
		}
		work.Tiers[bestTier].Servers++
		added++
		if added > maxServers*len(work.Tiers) {
			return nil, fmt.Errorf("core: SLAs unreachable within %d servers per tier", maxServers)
		}
		if bestGain > 0 {
			cur = bestV
		} else {
			cur = violationAt(work)
		}
	}

	// Removal polish: drop servers (most expensive tiers first) while the
	// configuration stays feasible.
	for improved := true; improved; {
		improved = false
		order := tiersByCostDesc(work)
		for _, j := range order {
			t := work.Tiers[j]
			if t.Servers <= 1 {
				continue
			}
			t.Servers--
			if violationAt(work) <= 0 {
				improved = true
			} else {
				t.Servers++
			}
		}
	}

	// Final speeds: either max speed (feasible by construction) or the
	// energy-minimal feasible point.
	_, hi := work.SpeedBounds()
	if err := work.SetSpeeds(hi); err != nil {
		return nil, err
	}
	if !o.SkipSpeedTuning || o.EnergyPrice > 0 {
		tuned, err := tuneSpeedsForSLA(work)
		if err == nil {
			work = tuned.Cluster
		}
		// On tuning failure keep max speeds — still feasible.
	}

	// Total-cost-of-ownership refinement: with energy priced, explore
	// adding servers (each candidate re-tuned to its energy-minimal
	// speeds) while the combined cost keeps falling.
	if o.EnergyPrice > 0 {
		var err error
		if work, err = tcoHillClimb(work, o, maxServers); err != nil {
			return nil, err
		}
	}

	// Report (and price energy) against the caller's original SLA bounds
	// and availabilities.
	restorePlanning(work)
	m, err := cluster.Evaluate(work)
	if err != nil {
		return nil, err
	}
	objective := cluster.TotalCost(work)
	if o.EnergyPrice > 0 {
		objective += o.EnergyPrice * m.TotalPower
	}
	result := opt.Result{Iters: added, Evals: evals, Converged: true}
	return &Solution{Cluster: work, Metrics: m, Objective: objective, Result: result}, nil
}

// slaViolation sets every tier of c to its maximum speed, the best case for
// every delay guarantee, and returns the worst relative SLA violation there:
// ≤ 0 means every SLA holds. c must be a valid cluster but for its speeds
// and server counts, the two things the sizing loops change: it builds c's
// tier models once, reads the bounds from them and evaluates them, without
// validating c again. A server count outside [1, queueing.MaxServers], a
// model that fails to evaluate, an unbounded or failed quantile and a NaN
// delay count as +Inf, so slaViolation(c) ≤ 0 exactly when CheckSLAs at
// maximum speeds finds every SLA satisfied.
func slaViolation(c *cluster.Cluster) float64 {
	for _, t := range c.Tiers {
		if t.Servers < 1 || t.Servers > queueing.MaxServers {
			return math.Inf(1)
		}
	}
	ms := c.TierModels()
	_, hi := cluster.ModelSpeedBounds(c, ms)
	if err := c.SetSpeeds(hi); err != nil {
		return math.Inf(1)
	}
	m, err := cluster.EvaluateModels(c, ms)
	if err != nil {
		return math.Inf(1)
	}
	worst := math.Inf(-1) // math.Max keeps a NaN
	for k, cl := range c.Classes {
		if cl.SLA.HasMeanBound() {
			worst = math.Max(worst, (m.Delay[k]-cl.SLA.MaxMeanDelay)/cl.SLA.MaxMeanDelay)
		}
		if cl.SLA.HasPercentileBound() {
			q, err := cluster.DelayQuantile(c, m, k, cl.SLA.Percentile)
			if err != nil || math.IsInf(q, 1) {
				return math.Inf(1)
			}
			worst = math.Max(worst, (q-cl.SLA.PercentileDelay)/cl.SLA.PercentileDelay)
		}
	}
	if math.IsNaN(worst) {
		return math.Inf(1)
	}
	return worst
}

// tcoCost returns the total cost of ownership of a cluster with metrics m:
// provisioning plus priced energy.
func tcoCost(c *cluster.Cluster, m *cluster.Metrics, energyPrice float64) float64 {
	return cluster.TotalCost(c) + energyPrice*m.TotalPower
}

// tcoHillClimb greedily adds servers (one tier at a time, re-tuning speeds
// to the energy-minimal SLA-feasible point per candidate) while the total
// cost of ownership keeps improving. The input is already SLA-feasible, so
// every candidate is too (more servers only help delay).
func tcoHillClimb(c *cluster.Cluster, o CostOptions, maxServers int) (*cluster.Cluster, error) {
	m, err := cluster.Evaluate(c)
	if err != nil {
		return nil, err
	}
	best, bestCost := c, tcoCost(c, m, o.EnergyPrice)
	for improved := true; improved; {
		improved = false
		for j := range best.Tiers {
			if best.Tiers[j].Servers >= maxServers {
				continue
			}
			cand := best.Clone()
			cand.Tiers[j].Servers++
			// Re-tune the candidate's speeds, priced by the tuned
			// solution's metrics; fall back to max speed.
			if tuned, err := tuneSpeedsForSLA(cand); err == nil {
				cand, m = tuned.Cluster, tuned.Metrics
			} else {
				_, hi := cand.SpeedBounds()
				if err := cand.SetSpeeds(hi); err != nil {
					continue
				}
				if m, err = cluster.Evaluate(cand); err != nil {
					continue
				}
			}
			if cost := tcoCost(cand, m, o.EnergyPrice); cost < bestCost*(1-1e-6) {
				best, bestCost = cand, cost
				improved = true
			}
		}
	}
	return best, nil
}

// tuneMargin is the fraction of each SLA bound speed tuning plans against:
// tuned speeds must satisfy the SLAs *strictly* (CheckSLAs has no
// tolerance), so the tuning targets a hair inside each bound.
const tuneMargin = 0.998

// tuneSpeedsForSLA lowers tier speeds to minimize power while keeping every
// SLA satisfied, holding the server counts fixed: the mean and tail rows of
// solveSLA at tuneMargin of each bound (tuneBounds). The solution's cluster
// carries the tuned speeds and its metrics are that cluster's.
func tuneSpeedsForSLA(c *cluster.Cluster) (*Solution, error) {
	mean, tail := tuneBounds(c)
	sol, err := solveSLA(c, mean, tail, nil)
	if err != nil {
		return nil, err
	}
	// Strict verification: the margin should leave every SLA met exactly;
	// if the solver still overshot, reject the tuning.
	reports, err := cluster.CheckSLAs(sol.Cluster, sol.Metrics)
	if err != nil {
		return nil, err
	}
	for _, rep := range reports {
		if !rep.Satisfied() {
			return nil, fmt.Errorf("core: speed tuning left an SLA violated")
		}
	}
	return sol, nil
}

// tuneBounds returns the bounds speed tuning solves for: tuneMargin of each
// class's SLA bounds.
func tuneBounds(c *cluster.Cluster) (mean []float64, tail []TailBound) {
	mean = make([]float64, len(c.Classes))
	tail = make([]TailBound, len(c.Classes))
	for k, cl := range c.Classes {
		if cl.SLA.HasMeanBound() {
			mean[k] = cl.SLA.MaxMeanDelay * tuneMargin
		}
		if cl.SLA.HasPercentileBound() {
			tail[k] = TailBound{Delay: cl.SLA.PercentileDelay * tuneMargin, Percentile: cl.SLA.Percentile}
		}
	}
	return mean, tail
}

// startServers sets every tier of c to the fewest servers, at most
// maxServers, that keep it stable alone at maximum speed: below 0.999
// utilization at the availability-degraded capacity hi·A that every model
// path serves at.
func startServers(c *cluster.Cluster, maxServers int) {
	for _, t := range c.Tiers {
		t.Servers = 1
	}
	ms := c.TierModels()
	_, hi := cluster.ModelSpeedBounds(c, ms)
	for j, t := range c.Tiers {
		st := ms[j].Station
		st.Speed = hi[j] * ms[j].Avail
		for ; t.Servers < maxServers; t.Servers++ {
			st.Servers = t.Servers
			if ms[j].Utilization() < 0.999 {
				break
			}
		}
	}
}

// hottestTier returns the index of the tier with the highest utilization at
// its current speed.
func hottestTier(c *cluster.Cluster) int {
	best, idx := math.Inf(-1), 0
	for j, m := range c.TierModels() {
		if u := m.Utilization(); u > best {
			best, idx = u, j
		}
	}
	return idx
}

// tiersByCostDesc returns tier indices ordered by per-server cost, highest
// first.
func tiersByCostDesc(c *cluster.Cluster) []int {
	idx := make([]int, len(c.Tiers))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ { // insertion sort; tier counts are tiny
		for j := i; j > 0 && c.Tiers[idx[j]].CostPerServer > c.Tiers[idx[j-1]].CostPerServer; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}
