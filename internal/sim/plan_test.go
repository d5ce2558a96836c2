package sim

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/obs/window"
	"clusterq/internal/queueing"
)

// holdAllPlan is a plan controller that holds every knob — the sim-package
// twin of internal/control's test NoOp (which cannot be imported here:
// control depends on sim). internal/control pins that NoOp returns the
// identical zero decision.
type holdAllPlan struct{}

func (holdAllPlan) Name() string                            { return "hold-all" }
func (holdAllPlan) DecidePlan(PlanObservation) PlanDecision { return PlanDecision{} }

// fixedPlan replays one constant decision every epoch.
type fixedPlan struct{ d PlanDecision }

func (fixedPlan) Name() string                              { return "fixed" }
func (p fixedPlan) DecidePlan(PlanObservation) PlanDecision { return p.d }

// TestPlanControllerNoOpPerturbationFree pins satellite 3's property: a plan
// controller that holds every knob must leave the Result bit-identical to a
// controller-free run — driven closed or AdvanceTo-sliced,
// with the window sensors attached (sensor reads only advance expiry
// bookkeeping). The run uses ZeroWarmup because the warmup reset otherwise
// lands on the first event past the warmup time, and control events would
// legitimately shift that timestamp; with no reset the event stream's extra
// control pops must be entirely invisible.
func TestPlanControllerNoOpPerturbationFree(t *testing.T) {
	quantiles := []float64{0.9, 0.95}
	base := Options{
		Horizon: 3000, Replications: 1, Seed: 42,
		Quantiles: quantiles, Warmup: ZeroWarmup,
	}
	free, err := Run(stepCluster(2, queueing.NonPreemptive), base)
	if err != nil {
		t.Fatal(err)
	}
	want := hashResult(free, quantiles)

	mkOpts := func() Options {
		o := base
		o.PlanController = holdAllPlan{}
		o.ControlPeriod = 37
		win, err := window.NewSet(window.Config{Width: 200}, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		o.Windows = win
		return o
	}
	closed, err := Run(stepCluster(2, queueing.NonPreemptive), mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := hashResult(closed, quantiles); got != want {
		t.Errorf("closed: no-op plan controller perturbed the run:\n got %s\nwant %s", got, want)
	}

	o := mkOpts()
	rep, err := NewReplication(stepCluster(2, queueing.NonPreemptive), o, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 250.0; tt <= o.Horizon; tt += 250 {
		rep.AdvanceTo(tt)
	}
	rep.AdvanceTo(math.Inf(1))
	res, err := rep.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := hashResult(res, quantiles); got != want {
		t.Errorf("sliced: no-op plan controller perturbed the run:\n got %s\nwant %s", got, want)
	}
}

// TestPlanControllerOptionValidation pins the Options contract: a plan
// controller needs a control period, exactly one replication, and cannot
// combine with the per-station controller.
func TestPlanControllerOptionValidation(t *testing.T) {
	c := stepCluster(1, queueing.FCFS)
	if _, err := Run(c, Options{Horizon: 100, Replications: 1,
		PlanController: holdAllPlan{}}); err == nil {
		t.Error("plan controller without period accepted")
	}
	if _, err := Run(c, Options{Horizon: 100, Replications: 2,
		PlanController: holdAllPlan{}, ControlPeriod: 10}); err == nil {
		t.Error("plan controller with 2 replications accepted")
	}
	if _, err := Run(c, Options{Horizon: 100, Replications: 1,
		PlanController: holdAllPlan{}, Controller: StaticPolicy{}, ControlPeriod: 10}); err == nil {
		t.Error("both controller kinds accepted")
	}
}

// TestPlanDecisionClampsAndHolds pins applyPlan's edge contract: NaN and
// non-positive speeds hold, out-of-range speeds clamp, and oversized server
// requests cap at the configured pool.
func TestPlanDecisionClampsAndHolds(t *testing.T) {
	c := stepCluster(2, queueing.NonPreemptive)
	o := Options{Horizon: 2000, Replications: 1, Seed: 3,
		ControlPeriod: 50, Probe: &Probe{Period: 100}}

	// NaN and zero speeds: pure holds, so no retune events at all.
	o.PlanController = fixedPlan{PlanDecision{Speeds: []float64{math.NaN()}}}
	res, err := Run(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventCounts[traceRetune] != 0 {
		t.Errorf("NaN plan speed caused %d retunes, want 0 (hold)", res.EventCounts[traceRetune])
	}
	if math.IsNaN(res.Delay[0].Mean) {
		t.Error("NaN plan speed leaked into results")
	}

	// A speed far beyond MaxSpeed clamps (station default MaxSpeed = 4×1);
	// asking for 1000 servers on a 2-server tier caps at 2 (a no-op park).
	o.PlanController = fixedPlan{PlanDecision{Speeds: []float64{1e9}, Servers: []int{1000}}}
	res, err = Run(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventCounts[traceRetune] == 0 {
		t.Error("clamped over-max speed was never applied")
	}
	if res.EventCounts[tracePark] != 0 {
		t.Errorf("capped server request caused %d park events, want 0", res.EventCounts[tracePark])
	}
	if !(res.Completed[0] > 0) || math.IsNaN(res.TotalPower.Mean) {
		t.Error("clamped plan produced a broken run")
	}
}

// TestPlanParkingShedsIdlePower pins the parking semantics: a plan that
// keeps one of two servers parked must draw less power than the full pool at
// light load (parked servers draw nothing) while still serving the whole
// workload, and the park event must be traced and counted.
func TestPlanParkingShedsIdlePower(t *testing.T) {
	classes := []cluster.Class{{Name: "a", Lambda: 0.2}}
	demands := []queueing.Demand{{Work: 1, CV2: 1}}
	mk := func() *cluster.Cluster { return oneTier(2, 1, queueing.FCFS, classes, demands) }
	base := Options{Horizon: 20000, Replications: 1, Seed: 11, Probe: &Probe{Period: 100}}

	full, err := Run(mk(), base)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.PlanController = fixedPlan{PlanDecision{Servers: []int{1}}}
	o.ControlPeriod = 50
	parked, err := Run(mk(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !(parked.TotalPower.Mean < full.TotalPower.Mean) {
		t.Errorf("parked power %g not below full-pool power %g",
			parked.TotalPower.Mean, full.TotalPower.Mean)
	}
	if parked.EventCounts[tracePark] == 0 {
		t.Error("no park events recorded")
	}
	// Same arrival stream (control consumes no RNG), ample capacity on the
	// one remaining server: throughput must be preserved.
	if relErr(float64(parked.Completed[0]), float64(full.Completed[0])) > 0.02 {
		t.Errorf("parking lost work: %d vs %d completions", parked.Completed[0], full.Completed[0])
	}
}
