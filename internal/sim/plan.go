package sim

import "math"

// Online control: the simulator side of the runtime controllers. Once per
// control epoch the engine assembles a PlanObservation — every station's
// epoch observation plus the windowed per-class arrival-rate estimates —
// hands it to the PlanController, and applies the returned PlanDecision
// under the stations' speed clamps. A per-station Controller runs through
// the same path, adapted by stationPlan, so there is one control hook.
//
// Determinism: the control event consumes no RNG draws, and a decision that
// holds every knob leaves the event stream untouched, so a no-op plan
// controller produces bit-identical results to a controller-free run (pinned
// by the perturbation-freedom tests in internal/control).

// handleControl runs one controller epoch and schedules the next.
func (s *simulator) handleControl() {
	now := s.cal.now
	obs := &s.planObs
	obs.Time = now
	for i, st := range s.stations {
		obs.Stations[i] = s.observeStation(st, now)
	}
	// λ̂ from the window sensors: NaN (no estimate) when no window set is
	// attached or a class's window has no coverage yet. Reading the sensor
	// only advances its expiry bookkeeping, never the measured state.
	s.tap.win.Rates(now, obs.Rates)
	s.applyPlan(now, s.planController.DecidePlan(*obs))
	s.cal.schedule(now+s.controlPeriod, evControl, 0, nil, 0, nil)
}

// stationPlan adapts a per-station Controller into a PlanController: each
// epoch it asks the policy for every station's next speed and never parks.
// One adapter serves one replication (it owns the decision's speed slice);
// the wrapped policy itself is shared by every replication.
type stationPlan struct {
	policy Controller
	speeds []float64
}

func (p *stationPlan) Name() string { return p.policy.Name() }

func (p *stationPlan) DecidePlan(obs PlanObservation) PlanDecision {
	for j, o := range obs.Stations {
		next := p.policy.Decide(o)
		// A NaN decision would pass BOTH clamp comparisons below (NaN<min
		// and NaN>max are both false) and poison every departure time at
		// the station — the whole run would then terminate silently early,
		// because a NaN event time fails the `t <= horizon` pending check.
		// A NaN decision degrades to the safe floor instead (the per-station
		// rule; a NaN plan speed would mean "hold").
		if math.IsNaN(next) {
			next = o.MinSpeed
		}
		p.speeds[j] = math.Min(math.Max(next, o.MinSpeed), o.MaxSpeed)
	}
	return PlanDecision{Speeds: p.speeds}
}

// applyPlan applies a plan decision: per-tier speed retunes (clamped, with
// non-finite and non-positive entries holding the current speed) and
// effective-server-count changes via parking. It always restarts the epoch
// utilization measurement, decision or not, so the next observation covers
// exactly one epoch.
func (s *simulator) applyPlan(now float64, d PlanDecision) {
	for j, st := range s.stations {
		if j < len(d.Speeds) {
			sp := d.Speeds[j]
			// NaN or non-positive means "hold" by contract — and a NaN that
			// slipped through would otherwise pass both clamp comparisons
			// and poison every departure time (see stationPlan).
			if !math.IsNaN(sp) && sp > 0 {
				if sp < st.minSpeed {
					sp = st.minSpeed
				}
				if sp > st.maxSpeed {
					sp = st.maxSpeed
				}
				s.setSpeed(st, now, sp)
			}
		}
		if j < len(d.Servers) && !st.sleepEnabled {
			if want := d.Servers[j]; want > 0 {
				if want > st.servers {
					want = st.servers // cannot buy hardware mid-run
				}
				s.setParked(st, now, st.servers-want)
			}
		}
		st.clock.epochBusy.restart(now)
	}
}

// setParked moves a station to the given parked-server count. Growing the
// active pool puts freed servers straight to work on the waiting line (like
// a repair); shrinking is lazy — running services finish first (departures
// stop backfilling while the pool is over-subscribed, see handleDeparture).
func (s *simulator) setParked(st *simStation, now float64, parked int) {
	if parked == st.parked {
		return
	}
	st.parked = parked
	s.emit(tkPark, now, -1, 0, st.idx, float64(parked))
	st.observeBusy(now) // the power level steps with the idle pool
	for st.freeServers() > 0 {
		next := st.nextWaiting()
		if next == nil {
			break
		}
		s.startService(st, next, now)
	}
}
