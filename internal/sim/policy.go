package sim

import "fmt"

// Observation is what a runtime DVFS controller sees about one station at a
// control epoch.
type Observation struct {
	Time        float64
	Station     int
	Utilization float64 // mean busy fraction per server since the last epoch
	QueueLen    int     // jobs waiting (not in service) right now
	Speed       float64 // current speed
	Servers     int
	MinSpeed    float64 // clamp range the decision will be held to
	MaxSpeed    float64
}

// Controller decides a station's next speed at every control epoch — the
// online counterpart of the paper's offline optimizations. The returned
// speed is clamped to [MinSpeed, MaxSpeed] by the simulator.
type Controller interface {
	// Name labels the policy in experiment tables.
	Name() string
	// Decide returns the speed to run the station at until the next epoch.
	Decide(obs Observation) float64
}

// UtilizationPolicy is the classic reactive DVFS rule: scale the speed so
// the observed utilization moves toward Target, with first-order smoothing
// (half the correction per epoch) and a queue-pressure boost of 0.1 per
// queued job per server that accelerates recovery when work has already
// piled up (utilization alone saturates at 1 and cannot see backlog).
type UtilizationPolicy struct {
	// Target is the desired per-server utilization, in [0, 1); 0 selects
	// the default 0.7. The simulator rejects any other value.
	Target float64
}

// The reactive rule's fixed gains: the fraction of the correction applied
// per epoch, and the backlog boost per queued job per server.
const (
	policyGain      = 0.5
	policyQueueGain = 0.1
)

// Name implements Controller.
func (p UtilizationPolicy) Name() string {
	return fmt.Sprintf("reactive(ρ*=%.2g)", p.target())
}

// validate rejects a target outside [0, 1), NaN included, which Decide would
// otherwise steer toward on every epoch.
func (p UtilizationPolicy) validate() error {
	if !(p.Target >= 0 && p.Target < 1) {
		return fmt.Errorf("sim: utilization target %g out of [0, 1)", p.Target)
	}
	return nil
}

func (p UtilizationPolicy) target() float64 {
	if p.Target == 0 {
		return 0.7
	}
	return p.Target
}

// PlanObservation is what a plan-level controller sees at a control epoch:
// every station's per-epoch observation plus the windowed per-class arrival-
// rate estimates. It is the cluster-wide counterpart of Observation — one
// decision over the whole plan instead of one per station.
type PlanObservation struct {
	// Time is the epoch's simulated time.
	Time float64
	// Stations holds one Observation per tier, in tier order.
	Stations []Observation
	// Rates[k] is class k's windowed arrival-rate estimate λ̂ read from the
	// attached window.Set at this epoch, or NaN when no window set is
	// attached (or the window has no coverage yet). Controllers must treat
	// NaN as "no estimate" and fall back to their nominal rates.
	Rates []float64
}

// PlanDecision is a plan-level controller's retune order. Zero values hold
// the current plan: a nil or short slice, a NaN or non-positive speed, and a
// non-positive server count all mean "leave that knob alone", so the zero
// PlanDecision is a guaranteed no-op (the perturbation-freedom tests pin
// that a controller returning it never changes any result bit).
type PlanDecision struct {
	// Speeds[j], when positive and finite, is tier j's new speed (clamped
	// to the tier's [MinSpeed, MaxSpeed] by the simulator).
	Speeds []float64
	// Servers[j], when positive, is tier j's new effective server count:
	// the simulator parks servers - Servers[j] of the configured servers
	// (clamped to at least 1 active). Parked servers draw no power and
	// accept no work; shrinking is lazy — running services finish before
	// the pool contracts. Ignored on tiers with the sleep policy enabled
	// (sleep already manages the idle pool) and values above the configured
	// count are capped (the simulator cannot buy hardware mid-run).
	Servers []int
}

// PlanController re-plans the whole cluster at every control epoch — the
// model-driven counterpart of the per-station Controller, designed for
// controllers that re-run the paper's optimizations against live estimates
// (see internal/control). At most one of Controller and PlanController may
// be set on Options.
type PlanController interface {
	// Name labels the policy in experiment tables.
	Name() string
	// DecidePlan returns the retune order to apply until the next epoch.
	DecidePlan(obs PlanObservation) PlanDecision
}

// Decide implements Controller. The served work rate since the last epoch is
// util·speed·servers; the speed that would serve the same work at the target
// utilization is util·speed/target. Backlog multiplies the estimate so the
// queue drains instead of merely not growing.
func (p UtilizationPolicy) Decide(obs Observation) float64 {
	desired := obs.Speed * obs.Utilization / p.target()
	if obs.QueueLen > obs.Servers {
		desired *= 1 + policyQueueGain*float64(obs.QueueLen)/float64(obs.Servers)
	}
	next := obs.Speed + policyGain*(desired-obs.Speed)
	if next < obs.MinSpeed {
		next = obs.MinSpeed
	}
	if next > obs.MaxSpeed {
		next = obs.MaxSpeed
	}
	return next
}
