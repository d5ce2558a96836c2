package core

import (
	"math"
	"reflect"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// symCluster builds a symmetric J-tier, K-class cluster: identical tiers,
// unit exponential work, per-class arrival rate lam.
func symCluster(j, k int, lam float64) *cluster.Cluster {
	pm, _ := power.NewPowerLaw(50, 5, 3)
	demands := make([]queueing.Demand, k)
	for i := range demands {
		demands[i] = queueing.Demand{Work: 1, CV2: 1}
	}
	tiers := make([]*cluster.Tier, j)
	for i := range tiers {
		tiers[i] = &cluster.Tier{
			Name: string(rune('A' + i)), Servers: 1, Speed: 4,
			MinSpeed: 0.1, MaxSpeed: 8,
			Discipline: queueing.NonPreemptive, Power: pm,
			CostPerServer: 1,
			Demands:       append([]queueing.Demand(nil), demands...),
		}
	}
	classes := make([]cluster.Class, k)
	for i := range classes {
		classes[i] = cluster.Class{Name: string(rune('a' + i)), Lambda: lam}
	}
	return &cluster.Cluster{Tiers: tiers, Classes: classes}
}

func TestMinimizeDelayRespectsBudget(t *testing.T) {
	c := symCluster(3, 2, 0.7)
	sol, err := MinimizeDelay(c, DelayOptions{EnergyBudget: 900})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Metrics.TotalPower > 900*1.002 {
		t.Errorf("power %g exceeds budget", sol.Metrics.TotalPower)
	}
	if !sol.Metrics.Stable() {
		t.Error("solution unstable")
	}
	if math.IsInf(sol.Objective, 1) || sol.Objective <= 0 {
		t.Errorf("objective = %g", sol.Objective)
	}
	// The input must not be mutated.
	if c.Tiers[0].Speed != 4 {
		t.Error("input cluster mutated")
	}
}

func TestMinimizeDelaySymmetricOptimumIsSymmetric(t *testing.T) {
	// With identical tiers the optimal speeds must be (nearly) equal.
	c := symCluster(3, 1, 0.8)
	sol, err := MinimizeDelay(c, DelayOptions{EnergyBudget: 700})
	if err != nil {
		t.Fatal(err)
	}
	s := sol.Cluster.Speeds()
	for i := 1; i < len(s); i++ {
		if !almostEq(s[i], s[0], 0.05) {
			t.Errorf("asymmetric optimum: %v", s)
		}
	}
	// The budget should be essentially exhausted (more speed always helps).
	if sol.Metrics.TotalPower < 0.95*700 {
		t.Errorf("budget underused: %g of 700", sol.Metrics.TotalPower)
	}
}

func TestMinimizeDelayMonotoneInBudget(t *testing.T) {
	c := symCluster(2, 2, 0.6)
	var prev float64 = math.Inf(1)
	for _, budget := range []float64{300, 450, 700, 1100} {
		sol, err := MinimizeDelay(c, DelayOptions{EnergyBudget: budget})
		if err != nil {
			t.Fatalf("budget %g: %v", budget, err)
		}
		if sol.Objective > prev*1.02 {
			t.Errorf("delay rose with a bigger budget: %g → %g", prev, sol.Objective)
		}
		prev = sol.Objective
	}
}

func TestMinimizeDelayInfeasibleBudget(t *testing.T) {
	c := symCluster(3, 2, 0.7)
	// The static floor alone is 150 W; a 10 W budget is hopeless.
	if _, err := MinimizeDelay(c, DelayOptions{EnergyBudget: 10}); err == nil {
		t.Error("impossible budget accepted")
	}
	if _, err := MinimizeDelay(c, DelayOptions{EnergyBudget: -5}); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestMinimizeDelayBeatsUniformBaseline(t *testing.T) {
	// Make tiers asymmetric so per-tier optimization has something to win:
	// the db tier carries triple work.
	c := symCluster(3, 2, 0.5)
	for k := range c.Tiers[2].Demands {
		c.Tiers[2].Demands[k].Work = 3
	}
	c.Tiers[2].MaxSpeed = 24

	budget := 1200.0
	optSol, err := MinimizeDelay(c, DelayOptions{EnergyBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	base, err := UniformDelayBaseline(c, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !(optSol.Objective <= base.Objective*1.001) {
		t.Errorf("optimizer %g worse than uniform baseline %g", optSol.Objective, base.Objective)
	}
	if base.Metrics.TotalPower > budget*1.001 {
		t.Errorf("baseline exceeded budget: %g", base.Metrics.TotalPower)
	}
}

func TestMinimizeEnergyMeetsBound(t *testing.T) {
	c := symCluster(3, 2, 0.7)
	sol, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Metrics.WeightedDelay > 3*1.002 {
		t.Errorf("delay %g exceeds bound", sol.Metrics.WeightedDelay)
	}
	if sol.Objective != sol.Metrics.TotalPower {
		t.Errorf("objective %g != power %g", sol.Objective, sol.Metrics.TotalPower)
	}
}

func TestMinimizeEnergyMonotoneInBound(t *testing.T) {
	c := symCluster(2, 2, 0.6)
	prev := 0.0
	for _, bound := range []float64{8, 4, 2, 1} { // tighter bounds
		sol, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: bound})
		if err != nil {
			t.Fatalf("bound %g: %v", bound, err)
		}
		if sol.Objective < prev*0.98 {
			t.Errorf("power fell with a tighter bound: %g → %g at bound %g", prev, sol.Objective, bound)
		}
		prev = sol.Objective
	}
}

func TestMinimizeEnergyBoundIsActive(t *testing.T) {
	// The optimum runs as slowly as allowed: the delay bound should be
	// (close to) tight unless the speed floor interferes.
	c := symCluster(3, 1, 0.8)
	sol, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Metrics.WeightedDelay < 4*0.9 {
		t.Errorf("bound slack at optimum: delay %g vs bound 4", sol.Metrics.WeightedDelay)
	}
}

func TestMinimizeEnergyInfeasibleBound(t *testing.T) {
	c := symCluster(3, 2, 0.7)
	if _, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: 1e-6}); err == nil {
		t.Error("impossible bound accepted")
	}
	if _, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: -1}); err == nil {
		t.Error("negative bound accepted")
	}
}

func TestMinimizeEnergyBeatsUniformBaseline(t *testing.T) {
	c := symCluster(3, 2, 0.5)
	for k := range c.Tiers[2].Demands {
		c.Tiers[2].Demands[k].Work = 3
	}
	c.Tiers[2].MaxSpeed = 24

	bound := 5.0
	optSol, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		t.Fatal(err)
	}
	base, err := UniformEnergyBaseline(c, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !(optSol.Objective <= base.Objective*1.001) {
		t.Errorf("optimizer %g W worse than uniform baseline %g W", optSol.Objective, base.Objective)
	}
	if base.Metrics.WeightedDelay > bound*1.001 {
		t.Errorf("baseline missed the bound: %g", base.Metrics.WeightedDelay)
	}
}

func TestMinimizeEnergyPerClass(t *testing.T) {
	c := symCluster(3, 3, 0.4)
	bounds := []float64{2, 4, 8}
	sol, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds})
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range bounds {
		if sol.Metrics.Delay[k] > b*1.005 {
			t.Errorf("class %d delay %g exceeds bound %g", k, sol.Metrics.Delay[k], b)
		}
	}
}

func TestMinimizeEnergyPerClassUnboundedEntries(t *testing.T) {
	c := symCluster(2, 3, 0.4)
	// Only the lowest class is bounded.
	bounds := []float64{0, 0, 3}
	sol, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Metrics.Delay[2] > 3*1.005 {
		t.Errorf("bounded class delay %g", sol.Metrics.Delay[2])
	}
}

func TestMinimizeEnergyPerClassErrors(t *testing.T) {
	c := symCluster(2, 2, 0.4)
	if _, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: []float64{1}}); err == nil {
		t.Error("wrong bound count accepted")
	}
	if _, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: []float64{0, 0}}); err == nil {
		t.Error("all-unbounded accepted")
	}
	if _, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: []float64{1e-9, 0}}); err == nil {
		t.Error("impossible bound accepted")
	}
}

func TestTightLowPriorityBoundCostsMoreEnergy(t *testing.T) {
	// Tightening the LOW priority class is the expensive direction: it
	// forces global speed-ups. Compare against tightening the high class
	// to the same value.
	c := symCluster(2, 2, 0.5)
	loose := 8.0
	tight := 1.6
	solLowTight, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: []float64{loose, tight}})
	if err != nil {
		t.Fatal(err)
	}
	solHighTight, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: []float64{tight, loose}})
	if err != nil {
		t.Fatal(err)
	}
	if !(solLowTight.Objective >= solHighTight.Objective*0.999) {
		t.Errorf("tight low-priority bound (%g W) should cost at least as much as tight high-priority (%g W)",
			solLowTight.Objective, solHighTight.Objective)
	}
}

func TestBindingClasses(t *testing.T) {
	c := symCluster(2, 2, 0.5)
	bounds := []float64{100, 2} // only the low class can bind
	sol, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if binding := BindingClasses(sol, bounds); !reflect.DeepEqual(binding, []int{1}) {
		t.Errorf("binding classes %v, want [1]: only the low class's bound is tight", binding)
	}
}

// TestDelayFrontierShape sweeps MinimizeDelay over energy budgets, the
// energy/performance curve E5 draws: an infeasible budget is an error and
// the minimum delay never rises as the budget grows.
func TestDelayFrontierShape(t *testing.T) {
	c := symCluster(2, 2, 0.6)
	if sol, err := MinimizeDelay(c, DelayOptions{EnergyBudget: 10}); err == nil {
		t.Errorf("infeasible budget 10 W solved: %+v", sol)
	}
	var delays []float64
	for _, b := range []float64{350, 500, 800} {
		sol, err := MinimizeDelay(c, DelayOptions{EnergyBudget: b})
		if err != nil {
			t.Fatalf("budget %g: %v", b, err)
		}
		delays = append(delays, sol.Objective)
	}
	for i := 1; i < len(delays); i++ {
		if delays[i] > delays[i-1]*1.02 {
			t.Errorf("frontier not non-increasing: %v", delays)
		}
	}
}

func TestMinimizeDelayCustomWeights(t *testing.T) {
	// Weighting only the LOW-priority class steers the optimum: the
	// bronze-weighted solve must achieve a lower bronze delay than the
	// gold-weighted solve at the same budget.
	c := symCluster(2, 2, 0.6)
	budget := 520.0
	wLow, err := minimizeDelayWeighted(c, budget, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	wHigh, err := minimizeDelayWeighted(c, budget, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !(wLow.Metrics.Delay[1] <= wHigh.Metrics.Delay[1]*1.01) {
		t.Errorf("bronze-weighted solve did not favour bronze: %g vs %g",
			wLow.Metrics.Delay[1], wHigh.Metrics.Delay[1])
	}
	// Objectives are the weighted delays, not the λ-weighted ones.
	if !almostEq(wLow.Objective, wLow.Metrics.Delay[1], 1e-6) {
		t.Errorf("objective %g != bronze delay %g", wLow.Objective, wLow.Metrics.Delay[1])
	}
}

func TestMinimizeDelayDualCustomWeights(t *testing.T) {
	c := symCluster(2, 2, 0.6)
	budget := 520.0
	sol, err := minimizeDelayWeighted(c, budget, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sol.Objective, sol.Metrics.Delay[1], 1e-6) {
		t.Errorf("dual objective %g != bronze delay %g", sol.Objective, sol.Metrics.Delay[1])
	}
	if _, err := minimizeDelayWeighted(c, budget, []float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := minimizeDelayWeighted(c, budget, []float64{-1, 1}); err == nil {
		t.Error("negative weight accepted")
	}
	// With no weights the solver weighs by arrival rate, as MinimizeDelayDual does.
	rate, err := minimizeDelayWeighted(c, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rate.Objective, dual.Objective, 1e-9) {
		t.Errorf("rate-weighted objective %g != MinimizeDelayDual's %g", rate.Objective, dual.Objective)
	}
}
