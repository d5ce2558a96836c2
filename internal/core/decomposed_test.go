package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
)

func TestDualMatchesAugLagOnEnergy(t *testing.T) {
	// Both solvers attack the same separable problem; the dual must find a
	// power no worse than the general solver (it is exact here) while
	// meeting the bound.
	for _, shape := range []struct{ j, k int }{{2, 2}, {3, 3}} {
		c := symCluster(shape.j, shape.k, 0.6)
		bound := 3.0
		dual, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: bound})
		if err != nil {
			t.Fatalf("%dx%d dual: %v", shape.j, shape.k, err)
		}
		al, err := augLagReference(c, totalPower, []metricFn{atMost(weightedDelay, bound)}, 3)
		if err != nil {
			t.Fatalf("%dx%d auglag: %v", shape.j, shape.k, err)
		}
		if dual.Metrics.WeightedDelay > bound*1.001 {
			t.Errorf("%dx%d: dual violates bound: %g", shape.j, shape.k, dual.Metrics.WeightedDelay)
		}
		if dual.Objective > al.Objective*1.005 {
			t.Errorf("%dx%d: dual power %g worse than auglag %g", shape.j, shape.k, dual.Objective, al.Objective)
		}
	}
}

func TestDualMatchesAugLagOnDelay(t *testing.T) {
	c := symCluster(3, 2, 0.6)
	budget := 700.0
	dual, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	al, err := augLagReference(c, weightedDelay, []metricFn{atMost(totalPower, budget)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dual.Metrics.TotalPower > budget*1.001 {
		t.Errorf("dual violates budget: %g", dual.Metrics.TotalPower)
	}
	if dual.Objective > al.Objective*1.005 {
		t.Errorf("dual delay %g worse than auglag %g", dual.Objective, al.Objective)
	}
}

func TestDualMuchFasterThanAugLag(t *testing.T) {
	c := symCluster(5, 4, 0.6)
	bound := 3.0
	// This test deliberately measures wall time: its whole point is the
	// solver-speed comparison, not simulated time.
	//lint:waive simdeterm reason="wall-clock measurement is the subject of this test" until=2027-08-01
	t0 := time.Now()
	if _, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: bound}); err != nil {
		t.Fatal(err)
	}
	//lint:waive simdeterm reason="wall-clock measurement is the subject of this test" until=2027-08-01
	dualTime := time.Since(t0)
	//lint:waive simdeterm reason="wall-clock measurement is the subject of this test" until=2027-08-01
	t0 = time.Now()
	if _, err := augLagReference(c, totalPower, []metricFn{atMost(weightedDelay, bound)}, 2); err != nil {
		t.Fatal(err)
	}
	//lint:waive simdeterm reason="wall-clock measurement is the subject of this test" until=2027-08-01
	alTime := time.Since(t0)
	if dualTime*3 > alTime {
		t.Logf("dual %v vs auglag %v — decomposition expected to be much faster", dualTime, alTime)
		// Timing assertions are flaky on loaded machines; only fail when
		// the dual is actually SLOWER.
		if dualTime > alTime {
			t.Errorf("dual (%v) slower than auglag (%v)", dualTime, alTime)
		}
	}
}

func TestDualLooseBoundStopsAtPowerFloor(t *testing.T) {
	// With an enormous bound the dual must return the β=0 point: the
	// cheapest stable speeds.
	c := symCluster(2, 2, 0.5)
	sol, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := sol.Cluster.SpeedBounds()
	for i, s := range sol.Cluster.Speeds() {
		if s > lo[i]*1.02 {
			t.Errorf("tier %d speed %g above floor %g with a loose bound", i, s, lo[i])
		}
	}
}

func TestDualRichBudgetRunsFlatOut(t *testing.T) {
	c := symCluster(2, 2, 0.5)
	sol, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	_, hi := sol.Cluster.SpeedBounds()
	for i, s := range sol.Cluster.Speeds() {
		if s < hi[i]*0.98 {
			t.Errorf("tier %d speed %g below max %g with an unlimited budget", i, s, hi[i])
		}
	}
}

func TestDualInfeasibleCases(t *testing.T) {
	c := symCluster(3, 2, 0.7)
	if _, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: 1e-9}); err == nil {
		t.Error("impossible bound accepted")
	}
	if _, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: -1}); err == nil {
		t.Error("negative bound accepted")
	}
	if _, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: 1}); err == nil {
		t.Error("impossible budget accepted")
	}
	if _, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: 500, Weights: []float64{1}}); err == nil {
		t.Error("wrong weight count accepted")
	}
}

func TestDualAsymmetricBeatsUniform(t *testing.T) {
	// The scenario where per-tier optimization matters: the dual must beat
	// the uniform baseline like the general solver does.
	c := symCluster(3, 2, 0.5)
	for k := range c.Tiers[2].Demands {
		c.Tiers[2].Demands[k].Work = 3
	}
	c.Tiers[2].MaxSpeed = 24
	bound := 5.0
	dual, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		t.Fatal(err)
	}
	base, err := UniformEnergyBaseline(c, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !(dual.Objective <= base.Objective*1.001) {
		t.Errorf("dual %g W worse than uniform %g W", dual.Objective, base.Objective)
	}
}

func TestDualDelayObjectiveIsWeightedDelay(t *testing.T) {
	c := symCluster(2, 2, 0.6)
	sol, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sol.Objective, sol.Metrics.WeightedDelay, 1e-9) {
		t.Errorf("objective %g != weighted delay %g", sol.Objective, sol.Metrics.WeightedDelay)
	}
}

// TestMeanDualsNonConvexTable: a power table that is not convex in 1/s gives
// the one-multiplier duals of C2 and C3a a duality gap when they search the
// whole speed box at once; split into convex parts as C3b is, they must match
// the augmented-Lagrangian reference on the table of
// TestPerClassNonConvexTable. The deprecated *Dual names must too.
func TestMeanDualsNonConvexTable(t *testing.T) {
	c := symCluster(2, 2, 0.5)
	tb, err := power.NewTable(30, []float64{1, 2.5, 4, 5.5, 8}, []float64{40, 46, 69, 134, 226})
	if err != nil {
		t.Fatal(err)
	}
	c.Tiers[1].Power = tb
	lo, hi := c.SpeedBounds()
	at := func(speeds []float64) *cluster.Metrics {
		x := c.Clone()
		if err := x.SetSpeeds(speeds); err != nil {
			t.Fatal(err)
		}
		m, err := cluster.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mLo, mHi := at(lo), at(hi)

	energy := []struct {
		name  string
		solve func(*cluster.Cluster, EnergyOptions) (*Solution, error)
	}{{"MinimizeEnergy", MinimizeEnergy}, {"MinimizeEnergyDual", MinimizeEnergyDual}}
	for _, f := range []float64{1.5, 3, 5} {
		bound := f * mHi.WeightedDelay
		ref, err := augLagReference(c, totalPower, []metricFn{atMost(weightedDelay, bound)}, 4)
		if err != nil {
			t.Fatalf("C3a bound ×%g: reference: %v", f, err)
		}
		for _, e := range energy {
			name := e.name
			sol, err := e.solve(c, EnergyOptions{MaxWeightedDelay: bound})
			if err != nil {
				t.Fatalf("%s bound ×%g: %v", name, f, err)
			}
			if !(sol.Metrics.WeightedDelay <= bound*(1+1e-6)) {
				t.Errorf("%s bound ×%g: delay %g exceeds bound %g", name, f, sol.Metrics.WeightedDelay, bound)
			}
			if sol.Objective > ref.Objective*(1+1e-3) {
				t.Errorf("%s bound ×%g: power %.6g W above reference %.6g W (%+.2f%%)",
					name, f, sol.Objective, ref.Objective, 100*(sol.Objective/ref.Objective-1))
			}
		}
	}

	delay := []struct {
		name  string
		solve func(*cluster.Cluster, DelayOptions) (*Solution, error)
	}{{"MinimizeDelay", MinimizeDelay}, {"MinimizeDelayDual", MinimizeDelayDual}}
	for _, level := range []float64{0.1, 0.3, 0.6} {
		budget := mLo.TotalPower + level*(mHi.TotalPower-mLo.TotalPower)
		ref, err := augLagReference(c, weightedDelay, []metricFn{atMost(totalPower, budget)}, 4)
		if err != nil {
			t.Fatalf("C2 level %g: reference: %v", level, err)
		}
		for _, d := range delay {
			name := d.name
			sol, err := d.solve(c, DelayOptions{EnergyBudget: budget})
			if err != nil {
				t.Fatalf("%s level %g: %v", name, level, err)
			}
			if !(sol.Metrics.TotalPower <= budget*(1+1e-6)) {
				t.Errorf("%s level %g: power %g W exceeds budget %g W", name, level, sol.Metrics.TotalPower, budget)
			}
			if sol.Objective > ref.Objective*(1+1e-3) {
				t.Errorf("%s level %g: delay %.6g s above reference %.6g s (%+.2f%%)",
					name, level, sol.Objective, ref.Objective, 100*(sol.Objective/ref.Objective-1))
			}
		}
	}
}

// TestDualsRejectHostileOptions: a NaN or infinite delay weight, and a NaN
// or +Inf class delay bound, must be rejected with an error naming the
// index, never solved. A NaN weight used to zero the objective and return
// the slowest speeds; a NaN class bound used to leave its class unbounded.
func TestDualsRejectHostileOptions(t *testing.T) {
	c := symCluster(2, 2, 0.5)
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		w []float64
		k int
	}{{[]float64{nan, 1}, 0}, {[]float64{inf, 1}, 0}, {[]float64{1, -inf}, 1}, {[]float64{1, nan}, 1}} {
		_, err := MinimizeDelay(c, DelayOptions{EnergyBudget: 500, Weights: tc.w})
		if want := fmt.Sprintf("weight %d ", tc.k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("weights %v: got %v, want an error naming %q", tc.w, err, want)
		}
	}
	if _, err := MinimizeDelay(c, DelayOptions{EnergyBudget: 500, Weights: []float64{math.MaxFloat64, math.MaxFloat64}}); err == nil {
		t.Error("weights summing to +Inf accepted")
	}
	for _, tc := range []struct {
		b []float64
		k int
	}{{[]float64{nan, 5}, 0}, {[]float64{inf, 5}, 0}, {[]float64{5, nan}, 1}} {
		_, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: tc.b})
		if want := fmt.Sprintf("class %d ", tc.k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("class bounds %v: got %v, want an error naming %q", tc.b, err, want)
		}
	}
}

// FuzzMeanDuals drives the C2 budget and weights, the C3a bound, the C3b
// class bounds and one tail bound (x, p) on a two-tier cluster with one
// non-convex power table. Every call must either fail or converge to finite
// speeds inside the speed box, a finite objective, and its constraint met
// within 1e-6 (the tail bound within 1e-9); none may panic. The corpus
// starts from the hostile values of TestDualsRejectHostileOptions and
// TestMinimizeEnergyTailErrors, from bounds just below the delays at the
// slowest point of the table's cheaper part (weighted 1000.67, per class
// 3.59 and 1997.7), where the ascent once gave up, and from tail bounds next
// to class 1's p95 at the slowest and the fastest corner (9473.5, 0.6833).
// At (59.08, 0.633) two tail linearizations once alternated between points
// 8e-10 apart in power, within the dual's own tolerance.
func FuzzMeanDuals(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	f.Add(500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 8.0, 0.95)
	f.Add(71.42857142857143, 943.0, inf, -152.91666666666666, inf, 2.5, inf, 0.5)
	f.Add(95.0041, 1000.66, 1.0, 0.0, 3.59, 1997.0, 5000.0, 0.99)
	f.Add(500.0, 1.0, nan, 1.0, nan, 5.0, nan, 0.95)
	f.Add(500.0, 1.0, inf, 1.0, inf, 5.0, 8.0, nan)
	f.Add(500.0, 1.0, 1.0, -inf, 5.0, nan, -inf, 0.9)
	f.Add(inf, inf, 0.0, 1.0, -inf, inf, 1e-300, 1e-300)
	f.Add(nan, nan, 1e-310, 0.0, 1e-9, 1e-300, 4.0, 1.0)
	f.Add(500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 3.0, 0.5)
	f.Add(500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 2000.0, 0.9)
	f.Add(500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 9473.0, 0.95)
	f.Add(500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.6834, 0.95)
	f.Add(500.0, -11.0, 58.125, -7.0, -153.0, -5.8, 59.07593333333334, 0.6333333333333333)
	c := nonConvexTableCluster()
	lo, hi := c.SpeedBounds()
	check := func(t *testing.T, name string, sol *Solution, value, limit, tol float64) {
		t.Helper()
		if !sol.Result.Converged {
			t.Errorf("%s: the dual ascent did not converge", name)
		}
		for j, s := range sol.Cluster.Speeds() {
			if !(s >= lo[j] && s <= hi[j]) {
				t.Errorf("%s: tier %d speed %g outside [%g, %g]", name, j, s, lo[j], hi[j])
			}
		}
		if math.IsNaN(sol.Objective) || math.IsInf(sol.Objective, 0) {
			t.Errorf("%s: objective %g", name, sol.Objective)
		}
		if !(value <= limit*(1+tol)) {
			t.Errorf("%s: constraint %g exceeds its limit %g", name, value, limit)
		}
	}
	f.Fuzz(func(t *testing.T, budget, bound, w0, w1, b0, b1, x, p float64) {
		if sol, err := MinimizeDelay(c, DelayOptions{EnergyBudget: budget, Weights: []float64{w0, w1}}); err == nil {
			check(t, "C2", sol, sol.Metrics.TotalPower, budget, 1e-6)
		}
		if sol, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: bound}); err == nil {
			check(t, "C3a", sol, sol.Metrics.WeightedDelay, bound, 1e-6)
		}
		bounds := []float64{b0, b1}
		if sol, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds}); err == nil {
			for k, b := range bounds {
				if b > 0 {
					check(t, fmt.Sprintf("C3b class %d", k), sol, sol.Metrics.Delay[k], b, 1e-6)
				}
			}
		}
		if sol, err := MinimizeEnergyTail(c, TailOptions{Bounds: []TailBound{{}, {Delay: x, Percentile: p}}}); err == nil {
			q, err := cluster.DelayQuantile(sol.Cluster, sol.Metrics, 1, p)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "C3 tail", sol, q, x, 1e-9)
		}
	})
}
