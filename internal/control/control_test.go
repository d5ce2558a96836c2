package control

import (
	"math"
	"reflect"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

func mkObs(t float64, rates ...float64) sim.PlanObservation {
	return sim.PlanObservation{Time: t, Stations: make([]sim.Observation, 3), Rates: rates}
}

func TestNewValidation(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	noSLA := c.Clone()
	for k := range noSLA.Classes {
		noSLA.Classes[k].SLA.MaxMeanDelay = 0
	}
	for _, tc := range []struct {
		name string
		c    *cluster.Cluster
		cfg  Config
	}{
		{"EnergySLA without SLA bounds", noSLA, Config{Objective: EnergySLA}},
		// The C3a, C2 and C4 objectives the controller once re-solved.
		{"objective 1", c, Config{Objective: Objective(1)}},
		{"objective 2", c, Config{Objective: Objective(2)}},
		{"objective 3", c, Config{Objective: Objective(3)}},
		{"unknown objective", c, Config{Objective: Objective(99)}},
		{"smoothing above 1", c, Config{Smoothing: 1.5}},
		{"smoothing negative", c, Config{Smoothing: -0.5}},
		{"margin absurd", c, Config{Margin: 10}},
	} {
		if _, err := New(tc.c, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The negative margin sentinel is an explicit zero, not an error.
	if _, err := New(c, Config{Margin: -1}); err != nil {
		t.Errorf("negative margin sentinel rejected: %v", err)
	}
}

func TestObjectiveStrings(t *testing.T) {
	if got := EnergySLA.String(); got != "C3b" {
		t.Errorf("EnergySLA.String() = %q, want \"C3b\"", got)
	}
	if got := Objective(42).String(); got != "Objective(42)" {
		t.Errorf("unknown objective string %q", got)
	}
}

// TestEWMASkipsNonEstimates pins the estimator contract: NaN, Inf and
// negative window readings leave the estimate untouched; valid readings fold
// in with the configured smoothing.
func TestEWMASkipsNonEstimates(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{Smoothing: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nominal := a.Estimates()
	a.DecidePlan(mkObs(10, math.NaN(), math.Inf(1), -3))
	if got := a.Estimates(); !reflect.DeepEqual(got, nominal) {
		t.Errorf("non-estimates moved the EWMA: %v vs %v", got, nominal)
	}
	a.DecidePlan(mkObs(20, 2*nominal[0], math.NaN(), math.NaN()))
	got := a.Estimates()
	if want := 1.5 * nominal[0]; math.Abs(got[0]-want) > 1e-12 {
		t.Errorf("EWMA(0.5) after 2λ reading = %g, want %g", got[0], want)
	}
	if got[1] != nominal[1] || got[2] != nominal[2] {
		t.Errorf("NaN readings moved other classes: %v", got)
	}
}

// TestDeadbandHoldsQuietEstimates pins the hold path: after the initial
// solve, epochs whose estimates and backlog stay within the 5% deadband
// return the zero decision (hold) without re-solving.
func TestDeadbandHoldsQuietEstimates(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nominal := a.Estimates()
	first := a.DecidePlan(mkObs(100, nominal...))
	if len(first.Speeds) != len(c.Tiers) {
		t.Fatalf("initial decision has %d speeds, want %d", len(first.Speeds), len(c.Tiers))
	}
	hold := a.DecidePlan(mkObs(200, nominal...))
	if !reflect.DeepEqual(hold, sim.PlanDecision{}) {
		t.Errorf("quiet epoch did not hold: %+v", hold)
	}
	s := a.Stats()
	if s.Solves != 1 || s.Holds != 1 || s.Fallbacks != 0 {
		t.Errorf("stats %v, want solves=1 holds=1 fallbacks=0", s)
	}
	// A rate shift far beyond the deadband re-solves.
	shifted := make([]float64, len(nominal))
	for k, v := range nominal {
		shifted[k] = 1.6 * v
	}
	// One epoch at the shifted rate: EWMA 0.5 reaches 1.3×, 30% from the
	// anchor and well past the 5% deadband.
	a.DecidePlan(mkObs(300, shifted...))
	if got := a.Stats().Solves; got != 2 {
		t.Errorf("shifted epoch did not re-solve: solves=%d", got)
	}
}

// TestBacklogBoostBreaksHold pins the drain term: a large queue re-solves
// even while the arrival-rate estimates sit exactly on the anchor.
func TestBacklogBoostBreaksHold(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nominal := a.Estimates()
	a.DecidePlan(mkObs(100, nominal...))
	obs := mkObs(200, nominal...)
	obs.Stations[0].QueueLen = 10000
	a.DecidePlan(obs)
	s := a.Stats()
	if s.Holds != 0 || s.Solves+s.Fallbacks != 2 {
		t.Errorf("backlog surge held the plan: %v", s)
	}
}

// TestInfeasibleLoadFallsBack pins the fallback: estimates far beyond what
// maximum speeds can serve within the SLA bounds must produce the safe plan
// (every tier at its speed ceiling) rather than an error or a stale plan.
func TestInfeasibleLoadFallsBack(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nominal := a.Estimates()
	huge := make([]float64, len(nominal))
	for k, v := range nominal {
		huge[k] = 1e4 * v
	}
	// Smoothing 0.5 halves the first step; two epochs get within 25% of
	// the (absurd) target, far past any feasible operating point.
	a.DecidePlan(mkObs(100, huge...))
	dec := a.DecidePlan(mkObs(200, huge...))
	if a.Stats().Fallbacks == 0 {
		t.Fatalf("infeasible load never fell back: %v", a.Stats())
	}
	_, hi := c.SpeedBounds()
	if !reflect.DeepEqual(dec.Speeds, hi) {
		t.Errorf("fallback speeds %v, want ceiling %v", dec.Speeds, hi)
	}
}

func TestStatsAndName(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	a, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Name(); got != "model(C3b)" {
		t.Errorf("Name() = %q", got)
	}
	if got := (Stats{Solves: 3, Holds: 2, Fallbacks: 1}).String(); got != "solves=3 holds=2 fallbacks=1" {
		t.Errorf("Stats.String() = %q", got)
	}
}

// TestEnergySLAWarmStartMatchesCold: the C3b re-solve starts from the
// previous epoch's multipliers. The warm start may only change how fast the
// solve converges, never the plan: each epoch's speeds must match a fresh
// controller's cold solve at the same estimates.
func TestEnergySLAWarmStartMatchesCold(t *testing.T) {
	c := workload.Enterprise3Tier(1)
	// Every epoch moves the estimates at least 30%, past the 5% deadband,
	// so each one re-solves.
	cfg := Config{Smoothing: 1}
	warm, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []float64{1, 1.3, 0.7, 1.6, 1.1} {
		rates := c.Lambdas()
		for k := range rates {
			rates[k] *= f
		}
		got := warm.DecidePlan(mkObs(40*float64(i+1), rates...))
		if i > 0 && warm.nu == nil {
			t.Fatalf("epoch %d: no multipliers carried", i)
		}
		cold, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := cold.DecidePlan(mkObs(40*float64(i+1), rates...))
		for j := range want.Speeds {
			if math.Abs(got.Speeds[j]-want.Speeds[j]) > 1e-6*want.Speeds[j] {
				t.Errorf("epoch %d tier %d: warm speed %.9g, cold %.9g", i, j, got.Speeds[j], want.Speeds[j])
			}
		}
	}
}
