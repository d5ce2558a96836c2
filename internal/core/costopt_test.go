package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
	"clusterq/internal/workload"
)

// slaCluster builds a 3-tier cluster with per-class SLA bounds and priced
// tiers, loaded enough that one server per tier cannot meet the SLAs.
func slaCluster() *cluster.Cluster {
	pm, _ := power.NewPowerLaw(80, 8, 3)
	mk := func(name string, cost float64, workScale float64) *cluster.Tier {
		return &cluster.Tier{
			Name: name, Servers: 1, Speed: 3, MinSpeed: 0.5, MaxSpeed: 3,
			Discipline: queueing.NonPreemptive, Power: pm, CostPerServer: cost,
			Demands: []queueing.Demand{
				{Work: 0.8 * workScale, CV2: 1},
				{Work: 1.0 * workScale, CV2: 1},
				{Work: 1.2 * workScale, CV2: 1},
			},
		}
	}
	return &cluster.Cluster{
		Tiers: []*cluster.Tier{mk("web", 1, 0.6), mk("app", 2, 1.0), mk("db", 4, 1.4)},
		Classes: []cluster.Class{
			{Name: "gold", Lambda: 1.2, SLA: cluster.SLA{MaxMeanDelay: 2.5, PricePerRequest: 5}},
			{Name: "silver", Lambda: 1.2, SLA: cluster.SLA{MaxMeanDelay: 4, PricePerRequest: 2}},
			{Name: "bronze", Lambda: 1.2, SLA: cluster.SLA{MaxMeanDelay: 8, PricePerRequest: 1}},
		},
	}
}

func TestMinimizeCostMeetsAllSLAs(t *testing.T) {
	c := slaCluster()
	sol, err := MinimizeCost(c, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := cluster.CheckSLAs(sol.Cluster, sol.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Satisfied() {
			t.Errorf("SLA not met: %+v", r)
		}
	}
	if sol.Objective != cluster.TotalCost(sol.Cluster) {
		t.Errorf("objective %g != cost %g", sol.Objective, cluster.TotalCost(sol.Cluster))
	}
	// The input must not be mutated.
	if c.Tiers[0].Servers != 1 {
		t.Error("input cluster mutated")
	}
}

func TestMinimizeCostBeatsUniformBaseline(t *testing.T) {
	c := slaCluster()
	sol, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := UniformCostBaseline(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !(sol.Objective <= base.Objective) {
		t.Errorf("greedy cost %g worse than uniform baseline %g", sol.Objective, base.Objective)
	}
}

func TestMinimizeCostNoWorseThanProportional(t *testing.T) {
	c := slaCluster()
	sol, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	prop, err := ProportionalCostBaseline(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !(sol.Objective <= prop.Objective*1.001) {
		t.Errorf("greedy cost %g worse than proportional baseline %g", sol.Objective, prop.Objective)
	}
	// Both must meet SLAs.
	for _, s := range []*Solution{sol, prop} {
		reports, _ := cluster.CheckSLAs(s.Cluster, s.Metrics)
		for _, r := range reports {
			if !r.Satisfied() {
				t.Errorf("baseline/solution violates SLA: %+v", r)
			}
		}
	}
}

func TestMinimizeCostSpeedTuningSavesEnergy(t *testing.T) {
	c := slaCluster()
	fast, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := MinimizeCost(c, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Objective != fast.Objective {
		t.Errorf("speed tuning changed the cost: %g vs %g", tuned.Objective, fast.Objective)
	}
	if !(tuned.Metrics.TotalPower <= fast.Metrics.TotalPower*1.001) {
		t.Errorf("tuned power %g not below max-speed power %g", tuned.Metrics.TotalPower, fast.Metrics.TotalPower)
	}
	// Tuned solution still meets SLAs.
	reports, _ := cluster.CheckSLAs(tuned.Cluster, tuned.Metrics)
	for _, r := range reports {
		if !r.Satisfied() {
			t.Errorf("tuned solution violates SLA: %+v", r)
		}
	}
}

func TestMinimizeCostWithPercentileSLA(t *testing.T) {
	c := slaCluster()
	c.Classes[0].SLA = cluster.SLA{PercentileDelay: 6, Percentile: 0.95, PricePerRequest: 5}
	sol, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := cluster.CheckSLAs(sol.Cluster, sol.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].TailOK {
		t.Errorf("percentile SLA not met: %+v", reports[0])
	}
}

func TestMinimizeCostErrors(t *testing.T) {
	// No SLA bounds at all.
	c := slaCluster()
	for k := range c.Classes {
		c.Classes[k].SLA = cluster.SLA{}
	}
	if _, err := MinimizeCost(c, CostOptions{}); err == nil {
		t.Error("unconstrained cost problem accepted")
	}
	// Unreachable SLA within the server cap.
	c2 := slaCluster()
	c2.Classes[0].SLA.MaxMeanDelay = 1e-9
	if _, err := MinimizeCost(c2, CostOptions{MaxServersPerTier: 3}); err == nil {
		t.Error("unreachable SLA accepted")
	}
}

func TestMinimizeCostTightSLANeedsMoreServers(t *testing.T) {
	loose := slaCluster()
	tight := slaCluster()
	for k := range tight.Classes {
		tight.Classes[k].SLA.MaxMeanDelay /= 2.4
	}
	sl, err := MinimizeCost(loose, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := MinimizeCost(tight, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(st.Objective >= sl.Objective) {
		t.Errorf("tighter SLAs should cost at least as much: %g vs %g", st.Objective, sl.Objective)
	}
}

func TestMinimizeCostSafetyMargin(t *testing.T) {
	c := slaCluster()
	plain, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	margin, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true, SafetyMargin: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// The margin plan must cost at least as much and leave slack: every
	// bounded class sits below 80% of its original bound.
	if margin.Objective < plain.Objective {
		t.Errorf("margin plan cheaper than plain: %g vs %g", margin.Objective, plain.Objective)
	}
	for k, cl := range margin.Cluster.Classes {
		if cl.SLA.MaxMeanDelay != c.Classes[k].SLA.MaxMeanDelay {
			t.Errorf("class %d SLA not restored: %g vs %g", k, cl.SLA.MaxMeanDelay, c.Classes[k].SLA.MaxMeanDelay)
		}
		if b := cl.SLA.MaxMeanDelay; b > 0 && margin.Metrics.Delay[k] > b*0.8*1.001 {
			t.Errorf("class %d delay %g lacks the 20%% headroom (bound %g)", k, margin.Metrics.Delay[k], b)
		}
	}
	// Invalid margins rejected.
	if _, err := MinimizeCost(c, CostOptions{SafetyMargin: 1}); err == nil {
		t.Error("margin 1 accepted")
	}
	if _, err := MinimizeCost(c, CostOptions{SafetyMargin: -0.1}); err == nil {
		t.Error("negative margin accepted")
	}
}

func TestUniformCostBaselineErrors(t *testing.T) {
	c := slaCluster()
	c.Classes[0].SLA.MaxMeanDelay = 1e-9
	if _, err := UniformCostBaseline(c, 4); err == nil {
		t.Error("unreachable SLA accepted by uniform baseline")
	}
	if _, err := ProportionalCostBaseline(c, 4); err == nil {
		t.Error("unreachable SLA accepted by proportional baseline")
	}
}

// costBaselines are the two cost baselines, by name.
var costBaselines = []struct {
	name string
	size func(*cluster.Cluster, int) (*Solution, error)
}{{"uniform", UniformCostBaseline}, {"proportional", ProportionalCostBaseline}}

// answerWithin runs a cost baseline on c with at most 4 servers per tier
// under a 5 s timer, so a search that never ends fails the test instead of
// hanging it.
func answerWithin(t *testing.T, name string, size func(*cluster.Cluster, int) (*Solution, error), c *cluster.Cluster) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := size(c, 4)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	//lint:waive simdeterm reason="a wall-clock timer bounds a search that may never end; nothing simulated reads it" until=2027-10-01
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no answer within 5 s", name)
		return nil
	}
}

// TestCostBaselinesReturnOnIdleClusters: with every arrival rate zero each
// scale of the proportional rule gives one server per tier, so when that
// misses an SLA both cost baselines must report it rather than search
// forever.
func TestCostBaselinesReturnOnIdleClusters(t *testing.T) {
	c := slaCluster()
	for k := range c.Classes {
		c.Classes[k].Lambda = 0
	}
	c.Classes[0].SLA.MaxMeanDelay = 1e-9
	for _, b := range costBaselines {
		if err := answerWithin(t, b.name, b.size, c.Clone()); err == nil {
			t.Errorf("%s: unreachable SLA accepted", b.name)
		}
	}
}

// TestCostBaselinesValidate: both cost baselines reject an invalid cluster
// with its validation error, not as unmet SLAs.
func TestCostBaselinesValidate(t *testing.T) {
	c := slaCluster()
	c.Classes[1].Lambda = math.NaN()
	want := c.Validate()
	if want == nil {
		t.Fatal("a NaN arrival rate passed validation")
	}
	for _, b := range costBaselines {
		if err := answerWithin(t, b.name, b.size, c.Clone()); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, want %v", b.name, err, want)
		}
	}
}

func TestUniformDelayBaselineInfeasible(t *testing.T) {
	c := slaCluster()
	if _, err := UniformDelayBaseline(c, 1); err == nil {
		t.Error("impossible budget accepted")
	}
	if _, err := UniformDelayBaseline(c, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestSpeedBaselinesRejectUnsolvableClusters holds both speed baselines to
// the clusters MinimizeDelay rejects: the heavy-database cluster with its db
// tier pinned at speed 4, which no speed stabilises, and one whose arrival
// rates sum to zero. UniformDelayBaseline once returned a +Inf objective for
// the first, with no error.
func TestSpeedBaselinesRejectUnsolvableClusters(t *testing.T) {
	unstable := workload.Enterprise3TierHeavyDB(1.0)
	unstable.Tiers[2].Speed, unstable.Tiers[2].MaxSpeed = 4, 4
	idle := workload.Enterprise3TierHeavyDB(1.0)
	for k := range idle.Classes {
		idle.Classes[k].Lambda = 0
	}
	for _, tc := range []struct {
		name string
		c    *cluster.Cluster
	}{{"unstable", unstable}, {"idle", idle}} {
		if _, err := MinimizeDelay(tc.c, DelayOptions{EnergyBudget: 1e6}); err == nil {
			t.Fatalf("%s: MinimizeDelay accepted the cluster", tc.name)
		}
		if sol, err := UniformDelayBaseline(tc.c, 1e6); err == nil {
			t.Errorf("%s: UniformDelayBaseline returned objective %g (stable %v), want an error",
				tc.name, sol.Objective, sol.Metrics.Stable())
		}
		if sol, err := UniformEnergyBaseline(tc.c, 1e6); err == nil {
			t.Errorf("%s: UniformEnergyBaseline returned objective %g (stable %v), want an error",
				tc.name, sol.Objective, sol.Metrics.Stable())
		}
	}
}

func TestUniformEnergyBaselineInfeasible(t *testing.T) {
	c := slaCluster()
	if _, err := UniformEnergyBaseline(c, 1e-9); err == nil {
		t.Error("impossible bound accepted")
	}
	if _, err := UniformEnergyBaseline(c, -1); err == nil {
		t.Error("negative bound accepted")
	}
}

func TestUniformEnergyBaselineLooseBoundUsesMinSpeeds(t *testing.T) {
	c := slaCluster()
	// slaCluster is unstable with one server per tier even at MaxSpeed;
	// give it capacity so the baseline has a feasible range to bisect.
	for _, tier := range c.Tiers {
		tier.Servers = 4
	}
	sol, err := UniformEnergyBaseline(c, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// With an enormous bound the baseline should sit at the slow end.
	lo, _ := sol.Cluster.SpeedBounds()
	s := sol.Cluster.Speeds()
	for i := range s {
		if s[i] > lo[i]*1.05 {
			t.Errorf("tier %d speed %g not at floor %g", i, s[i], lo[i])
		}
	}
}

func TestMinimizeCostAvailabilityMargin(t *testing.T) {
	nominal, err := MinimizeCost(slaCluster(), CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	derated, err := MinimizeCost(slaCluster(), CostOptions{SkipSpeedTuning: true, Availability: 0.7})
	if err != nil {
		t.Fatal(err)
	}

	total := func(s *Solution) int {
		n := 0
		for _, tier := range s.Cluster.Tiers {
			n += tier.Servers
		}
		return n
	}
	if !(total(derated) > total(nominal)) {
		t.Errorf("planning at A=0.7 sized %d servers, nominal plan %d; want strictly more",
			total(derated), total(nominal))
	}

	// The solution must report at the original availabilities (here: always
	// up) and still satisfy every SLA there.
	for _, tier := range derated.Cluster.Tiers {
		if tier.Availability != 0 {
			t.Errorf("tier %q availability %g leaked from planning", tier.Name, tier.Availability)
		}
	}
	reports, err := cluster.CheckSLAs(derated.Cluster, derated.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Satisfied() {
			t.Errorf("SLA not met: %+v", r)
		}
	}

	// Availability 1 is an explicit no-op.
	noop, err := MinimizeCost(slaCluster(), CostOptions{SkipSpeedTuning: true, Availability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if total(noop) != total(nominal) {
		t.Errorf("A=1 plan sized %d servers, nominal %d", total(noop), total(nominal))
	}

	for _, a := range []float64{-0.5, 1.5, math.NaN()} {
		if _, err := MinimizeCost(slaCluster(), CostOptions{Availability: a}); err == nil {
			t.Errorf("availability %g: want error", a)
		}
	}
}

// TestMinimizeCostStartIsStable: MinimizeCost's greedy growth starts from
// the fewest servers that keep each tier stable alone at maximum speed, with
// the capacity hi·A the tier actually serves at. At the planning
// availability 0.7 of TestMinimizeCostAvailabilityMargin, counts sized at
// the nominal hi left slaCluster's web and db tiers 103% and 120% busy.
func TestMinimizeCostStartIsStable(t *testing.T) {
	for _, a := range []float64{1, 0.7, 0.4} {
		c := slaCluster()
		for _, tier := range c.Tiers {
			tier.Availability = a
		}
		startServers(c, 64)
		_, hi := c.SpeedBounds()
		ms := c.TierModels()
		for j, tier := range c.Tiers {
			m := &ms[j]
			_, _, tm, err := m.Eval(hi[j], nil, nil)
			if err != nil || !(tm.Utilization < 0.999) {
				t.Errorf("A=%g tier %q: %d servers start at utilization %g (%v), want below 0.999",
					a, tier.Name, tier.Servers, tm.Utilization, err)
			}
			if m.Station.Servers = tier.Servers - 1; tier.Servers > 1 && m.Utilization() < 0.999 {
				t.Errorf("A=%g tier %q: %d servers start, but %d are already stable", a, tier.Name, tier.Servers, tier.Servers-1)
			}
		}
	}
}

// TestTuneSpeedsPercentileCertified: a percentile bound enters C4's speed
// tuning as a linearized tail row of the dual, here next to a mean bound on
// the same class. The tuned speeds must meet every SLA strictly, at no more
// power than maximum speed, and be the solveSLA answer at the tuning margin,
// whose final linearization certifies (certifySLA).
func TestTuneSpeedsPercentileCertified(t *testing.T) {
	c := slaCluster()
	c.Classes[0].SLA = cluster.SLA{PercentileDelay: 6, Percentile: 0.95, PricePerRequest: 5}
	c.Classes[2].SLA.PercentileDelay, c.Classes[2].SLA.Percentile = 20, 0.9
	sized, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	tunedSol, err := tuneSpeedsForSLA(sized.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	tuned := tunedSol.Cluster
	m, err := cluster.Evaluate(tuned)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := cluster.CheckSLAs(tuned, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Satisfied() {
			t.Errorf("tuned speeds violate an SLA: %+v", r)
		}
	}
	if !(m.TotalPower <= sized.Metrics.TotalPower) {
		t.Errorf("tuned power %g W above max-speed power %g W", m.TotalPower, sized.Metrics.TotalPower)
	}
	mean, tail := tuneBounds(c)
	sol, err := solveSLA(sized.Cluster, mean, tail, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tuned.Speeds(), sol.Cluster.Speeds()) {
		t.Errorf("tuned speeds %v, solveSLA's %v", tuned.Speeds(), sol.Cluster.Speeds())
	}
	certifySLA(t, "tuning", sized.Cluster, mean, tail, sol, certGapTol)
}

// TestTuneSpeedsMeanOnlyIsExact: with mean bounds alone C4's speed tuning is
// C3b at the tightened bounds, solved by the dual. The tuned speeds must meet
// every SLA strictly, at no more power than maximum speed, and be the C3b
// answer at the tuning margin, which certifies (certifySLA).
func TestTuneSpeedsMeanOnlyIsExact(t *testing.T) {
	c := slaCluster()
	sized, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := MinimizeCost(c, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := cluster.CheckSLAs(tuned.Cluster, tuned.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Satisfied() {
			t.Errorf("tuned speeds violate an SLA: %+v", r)
		}
	}
	if !(tuned.Metrics.TotalPower <= sized.Metrics.TotalPower) {
		t.Errorf("tuned power %g W above max-speed power %g W", tuned.Metrics.TotalPower, sized.Metrics.TotalPower)
	}
	bounds := make([]float64, len(c.Classes))
	for k, cl := range c.Classes {
		bounds[k] = cl.SLA.MaxMeanDelay * tuneMargin
	}
	sol, err := MinimizeEnergyPerClass(sized.Cluster, EnergyOptions{MaxClassDelay: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tuned.Cluster.Speeds(), sol.Cluster.Speeds()) {
		t.Errorf("tuned speeds %v, C3b's %v", tuned.Cluster.Speeds(), sol.Cluster.Speeds())
	}
	certifySLA(t, "tuning", sized.Cluster, bounds, nil, sol, certGapTol)
}
