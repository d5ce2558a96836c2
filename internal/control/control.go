// Package control implements the model-driven online autoscaler: a plan-
// level simulator controller (sim.PlanController) that closes ROADMAP item
// 1's loop. At every control epoch it re-estimates per-class arrival rates
// from the sliding-window sensors (internal/obs/window, delivered through
// PlanObservation.Rates), smooths them, and re-runs the paper's C3b
// (MinimizeEnergyPerClass) against the live estimates, retuning per-tier
// speeds to the re-solved operating point.
//
// The controller is deliberately an MPC-without-the-P: the solver already
// embeds the queueing model, so each epoch's plan is the steady-state-optimal
// operating point for the currently estimated load. A relative-change
// deadband skips re-solves while the estimates are quiet, and an infeasible
// solve (estimated load beyond what even maximum speeds can serve within the
// bounds) falls back to maximum speeds — protect the SLA first, save energy
// when the model says it is safe.
//
// Determinism: decisions are pure functions of the observation stream and
// the configuration. The package draws no randomness and reads no clocks —
// the solvers are deterministic too — and it is inside the
// simdeterm and rngstream lint scopes to keep it that way, so a simulation
// driven by this controller is bit-reproducible from its seed.
package control

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/opt"
	"clusterq/internal/sim"
)

// Objective selects which of the paper's optimization problems the
// controller re-solves each epoch. C3b is the only one.
type Objective int

// EnergySLA re-solves C3b: minimize power subject to every class's SLA
// mean-delay bound (read from the cluster's SLAs).
const EnergySLA Objective = 0

func (o Objective) String() string {
	if o == EnergySLA {
		return "C3b"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Config parameterizes the autoscaler.
type Config struct {
	// Objective must be EnergySLA, its zero value.
	Objective Objective
	// Smoothing is the EWMA factor applied to each epoch's windowed rate
	// estimate, in (0, 1]: est ← Smoothing·λ̂ + (1−Smoothing)·est. Default
	// 0.5; 1 trusts each window reading outright.
	Smoothing float64
	// Margin inflates every estimate before solving — the plan serves
	// λ̂·(1+Margin) — covering the estimation lag of the sliding window and
	// EWMA during load rises. The offline problems place the binding
	// delays AT their bounds, so an unmargined plan saturates on any
	// underestimate. Default 0.15; any negative value means an explicit
	// zero margin (the negative-sentinel convention again).
	Margin float64
	// Starts and AugLag are ignored; removed with the benchmark change of
	// ROADMAP item 1.
	Starts int
	AugLag opt.AugLagOptions
}

// Controller is the model-driven autoscaler. Construct with New; it
// implements sim.PlanController and is stateful across epochs (estimates,
// deadband anchor), which is why the simulator restricts plan controllers to
// a single replication.
type Controller struct {
	base    *cluster.Cluster
	cfg     Config
	nominal []float64 // the cluster's configured λ, the cold-start estimate
	est     []float64 // EWMA-smoothed arrival-rate estimates
	anchor  []float64 // estimates at the last solve, the deadband reference
	anchorF float64   // margin·drain factor at the last solve
	lastT   float64   // previous epoch's time (drain-rate denominator)
	solved  bool      // an initial solve has produced a plan
	nu      []float64 // the last C3b solve's multipliers, the next one's start

	fallback sim.PlanDecision // max speeds: the safe plan

	stats Stats
}

// Stats counts what the controller did over a run — how often the model was
// re-solved, how often the deadband held the plan, and how often an
// infeasible solve forced the maximum-speed fallback.
type Stats struct {
	Solves, Holds, Fallbacks int
}

func (s Stats) String() string {
	return fmt.Sprintf("solves=%d holds=%d fallbacks=%d", s.Solves, s.Holds, s.Fallbacks)
}

// New validates the configuration against the cluster and returns a
// controller. The cluster is cloned: later mutations of c do not affect the
// controller, and the controller never mutates c.
func New(c *cluster.Cluster, cfg Config) (*Controller, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if cfg.Objective != EnergySLA {
		return nil, fmt.Errorf("control: unknown objective %v", cfg.Objective)
	}
	any := false
	for _, cl := range c.Classes {
		if cl.SLA.HasMeanBound() {
			any = true
		}
	}
	if !any {
		return nil, fmt.Errorf("control: objective %v needs at least one class with an SLA mean-delay bound", cfg.Objective)
	}
	switch {
	case cfg.Smoothing == 0:
		cfg.Smoothing = 0.5
	case !(cfg.Smoothing > 0) || cfg.Smoothing > 1:
		return nil, fmt.Errorf("control: smoothing %g out of (0, 1]", cfg.Smoothing)
	}
	switch {
	case cfg.Margin == 0:
		cfg.Margin = 0.15
	case cfg.Margin < 0:
		cfg.Margin = 0
	case !(cfg.Margin < 10):
		return nil, fmt.Errorf("control: margin %g is not a sane headroom fraction", cfg.Margin)
	}
	a := &Controller{
		base:    c.Clone(),
		cfg:     cfg,
		nominal: c.Lambdas(),
	}
	a.est = append([]float64(nil), a.nominal...)
	// The safe plan: every tier at its optimizer speed ceiling.
	// SpeedBounds' hi respects the configured MaxSpeed.
	_, hi := a.base.SpeedBounds()
	a.fallback = sim.PlanDecision{Speeds: hi}
	return a, nil
}

// Name implements sim.PlanController.
func (a *Controller) Name() string {
	return fmt.Sprintf("model(%v)", a.cfg.Objective)
}

// Stats returns the controller's decision counters.
func (a *Controller) Stats() Stats { return a.stats }

// Estimates returns a copy of the current smoothed per-class arrival-rate
// estimates (the nominal rates until window readings arrive).
func (a *Controller) Estimates() []float64 {
	return append([]float64(nil), a.est...)
}

// DecidePlan implements sim.PlanController: fold the epoch's windowed rate
// estimates into the EWMA, compute the margin·drain inflation factor, hold
// inside the deadband, otherwise re-solve C3b at the inflated estimates and
// return its operating point.
func (a *Controller) DecidePlan(obs sim.PlanObservation) sim.PlanDecision {
	for k := range a.est {
		if k >= len(obs.Rates) {
			break
		}
		r := obs.Rates[k]
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			continue // no estimate this epoch; keep the current one
		}
		a.est[k] += a.cfg.Smoothing * (r - a.est[k])
	}
	factor := (1 + a.cfg.Margin) * (1 + a.drainBoost(obs))
	if a.solved && a.withinDeadband(factor) {
		a.stats.Holds++
		return sim.PlanDecision{}
	}
	dec, ok := a.solve(factor)
	a.solved = true
	a.anchor = append(a.anchor[:0], a.est...)
	a.anchorF = factor
	if !ok {
		a.stats.Fallbacks++
		return a.fallback
	}
	a.stats.Solves++
	return dec
}

// drainBoost converts the observed backlog into an extra service-rate
// fraction. A steady-state re-solve is blind to accumulated queues: it
// provisions for the arrival rate and would carry any backlog forever (the
// very failure mode that makes pure steady-state MPC saturate after a load
// rise). Planning for the extra throughput that clears the waiting jobs
// within roughly one epoch drains the backlog instead. The boost is capped —
// a huge backlog wants the fallback's maximum speeds, not an infeasible
// solve at an absurd rate.
func (a *Controller) drainBoost(obs sim.PlanObservation) float64 {
	backlog := 0
	for _, st := range obs.Stations {
		backlog += st.QueueLen
	}
	epoch := obs.Time - a.lastT
	a.lastT = obs.Time
	if backlog == 0 || !(epoch > 0) {
		return 0
	}
	var lam float64
	for _, e := range a.est {
		lam += e
	}
	if !(lam > 0) {
		return 0
	}
	boost := float64(backlog) / (lam * epoch)
	if boost > 2 {
		boost = 2
	}
	return boost
}

// deadband is the relative change, in each class's estimate and in the
// margin·drain factor, below which the controller holds the current plan
// instead of re-solving.
const deadband = 0.05

// withinDeadband reports whether every class's estimate — and the overall
// inflation factor — is within the relative deadband of the last solve's
// anchor. A backlog surge therefore re-solves even while the arrival-rate
// estimates are quiet.
func (a *Controller) withinDeadband(factor float64) bool {
	if a.anchor == nil {
		return false
	}
	if !(a.anchorF > 0) || math.Abs(factor-a.anchorF)/a.anchorF > deadband {
		return false
	}
	for k, e := range a.est {
		ref := a.anchor[k]
		if ref == 0 {
			if e != 0 {
				return false
			}
			continue
		}
		if math.Abs(e-ref)/ref > deadband {
			return false
		}
	}
	return true
}

// solve re-runs C3b at the current estimates scaled by the margin·drain
// factor, returning ok=false when the problem is infeasible at that load (or
// the solver rejects it), in which case the caller applies the fallback.
func (a *Controller) solve(factor float64) (sim.PlanDecision, bool) {
	c := a.base.Clone()
	bounds := make([]float64, len(c.Classes))
	for k := range c.Classes {
		// A numerically dead class still needs a positive rate for the
		// evaluator; floor the estimate at 1% of nominal.
		lam := factor * a.est[k]
		if lam < 0.01*a.nominal[k] {
			lam = 0.01 * a.nominal[k]
		}
		c.Classes[k].Lambda = lam
		bounds[k] = c.Classes[k].SLA.MaxMeanDelay
	}
	sol, err := core.MinimizeEnergyPerClass(c, core.EnergyOptions{
		MaxClassDelay: bounds, WarmStart: a.nu,
	})
	if err != nil {
		return sim.PlanDecision{}, false
	}
	a.nu = sol.Multipliers
	return sim.PlanDecision{Speeds: sol.Cluster.Speeds()}, true
}
