package control

import (
	"fmt"
	"reflect"
	"testing"

	"clusterq/internal/obs/window"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// NoOp is a plan controller that holds every knob at every epoch — the
// perturbation-freedom baseline: attaching it must leave every simulation
// result bit-identical to a controller-free run.
type NoOp struct{}

// Name implements sim.PlanController.
func (NoOp) Name() string { return "noop" }

// DecidePlan implements sim.PlanController.
func (NoOp) DecidePlan(sim.PlanObservation) sim.PlanDecision { return sim.PlanDecision{} }

// TestNoOpIsPerturbationFree pins perturbation freedom from the control
// side: attaching NoOp (with window sensors) must leave
// the entire Result exactly equal to a controller-free run. The comparison formats every field with %#v — the default
// float formatting is the shortest round-trippable representation, so two
// distinct bit patterns render distinctly — instead of reflect.DeepEqual,
// whose NaN ≠ NaN rule trips on the single-replication confidence
// half-widths that are legitimately NaN in BOTH results. The sim package
// pins the same property for the AdvanceTo-sliced step engine (it cannot
// import this package); NoOp returning the guaranteed-no-op zero decision
// is what ties the two tests together.
func TestNoOpIsPerturbationFree(t *testing.T) {
	if d := (NoOp{}).DecidePlan(sim.PlanObservation{}); !reflect.DeepEqual(d, sim.PlanDecision{}) {
		t.Fatalf("NoOp decision %+v is not the zero decision", d)
	}
	if (NoOp{}).Name() == "" {
		t.Fatal("NoOp has no name")
	}
	c := workload.Enterprise3Tier(1)
	base := sim.Options{
		Horizon: 2000, Replications: 1, Seed: 9,
		Warmup: sim.ZeroWarmup, // control events must not shift the warmup reset
	}
	free, err := sim.Run(c, base)
	if err != nil {
		t.Fatal(err)
	}
	win, err := window.NewSet(window.Config{Width: 100}, len(c.Classes), len(c.Tiers))
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.PlanController = NoOp{}
	o.ControlPeriod = 31
	o.Windows = win
	withNoOp, err := sim.Run(c, o)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fmt.Sprintf("%#v", *free), fmt.Sprintf("%#v", *withNoOp)
	if a != b {
		t.Errorf("NoOp plan controller perturbed the Result:\nfree: %s\nnoop: %s", a, b)
	}
}
