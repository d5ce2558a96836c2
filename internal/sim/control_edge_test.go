package sim

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

// nanPolicy is a broken controller that always returns NaN — the shape a
// divide-by-zero inside a user policy produces.
type nanPolicy struct{}

func (nanPolicy) Name() string               { return "nan" }
func (nanPolicy) Decide(Observation) float64 { return math.NaN() }

// TestNaNControllerDecisionDegradesToMinSpeed pins the NaN-clamp fix. A NaN
// desired speed passes both clamp comparisons (NaN<min and NaN>max are both
// false), so before the guard it reached setSpeed, poisoned every departure
// time at the station, and silently terminated the whole run at the first
// control epoch (a NaN event time fails the `t <= horizon` pending check).
// With the guard the decision degrades to the station's MinSpeed and the run
// completes the full horizon with finite statistics — including under
// breakdowns, where the repair path reschedules work at the (clamped) speed.
func TestNaNControllerDecisionDegradesToMinSpeed(t *testing.T) {
	c := oneTier(2, 1, queueing.NonPreemptive,
		[]cluster.Class{{Name: "a", Lambda: 0.2}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	o := Options{
		Horizon: 4000, Replications: 2, Seed: 7,
		Controller: nanPolicy{}, ControlPeriod: 25,
		Failures: []*FailureConfig{{MTBF: 50, MTTR: 5}},
		Probe:    &Probe{Period: 100},
	}
	res, err := Run(c, o)
	if err != nil {
		t.Fatal(err)
	}
	// Station minSpeed defaults to Speed/4 = 0.25, so capacity stays above
	// the offered 0.2 work/s: the run must deliver roughly λ·horizon·reps
	// completions, not the handful that fit before the first control epoch.
	if want := int64(0.2 * 4000 * 2 / 2); res.Completed[0] < want {
		t.Errorf("completions %d < %d: NaN decision wedged the run early", res.Completed[0], want)
	}
	if math.IsNaN(res.Delay[0].Mean) || math.IsNaN(res.TotalPower.Mean) {
		t.Errorf("NaN leaked into results: delay %g power %g", res.Delay[0].Mean, res.TotalPower.Mean)
	}
	// The degraded decision is applied as a real retune to MinSpeed (once:
	// subsequent identical decisions are skipped by setSpeed).
	if res.EventCounts[traceRetune] == 0 {
		t.Error("no retune events: the clamped NaN decision was never applied")
	}
}
