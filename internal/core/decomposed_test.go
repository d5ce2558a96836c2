package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"clusterq/internal/cluster"
)

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
// whole speed box at once; split into convex parts as C3b is, their answers
// must certify on the table of TestPerClassNonConvexTable. The deprecated
// *Dual names must too.
func TestMeanDualsNonConvexTable(t *testing.T) {
	c := nonConvexTableCluster()
	lo, hi := c.SpeedBounds()
	mLo, mHi := dualPinMetrics(c, lo), dualPinMetrics(c, hi)

	energy := []struct {
		name  string
		solve func(*cluster.Cluster, EnergyOptions) (*Solution, error)
	}{{"MinimizeEnergy", MinimizeEnergy}, {"MinimizeEnergyDual", MinimizeEnergyDual}}
	for _, f := range []float64{1.5, 3, 5} {
		bound := f * mHi.WeightedDelay
		for _, e := range energy {
			name := fmt.Sprintf("%s bound ×%g", e.name, f)
			sol, err := e.solve(c, EnergyOptions{MaxWeightedDelay: bound})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !(sol.Metrics.WeightedDelay <= bound*(1+1e-6)) {
				t.Errorf("%s: delay %g exceeds bound %g", name, sol.Metrics.WeightedDelay, bound)
			}
			certifyMean(t, name, c, nil, meanProblem(c, "c3a", bound, nil, nil), sol, certGapTol)
		}
	}

	delay := []struct {
		name  string
		solve func(*cluster.Cluster, DelayOptions) (*Solution, error)
	}{{"MinimizeDelay", MinimizeDelay}, {"MinimizeDelayDual", MinimizeDelayDual}}
	for _, level := range []float64{0.1, 0.3, 0.6} {
		budget := mLo.TotalPower + level*(mHi.TotalPower-mLo.TotalPower)
		for _, d := range delay {
			name := fmt.Sprintf("%s level %g", d.name, level)
			sol, err := d.solve(c, DelayOptions{EnergyBudget: budget})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !(sol.Metrics.TotalPower <= budget*(1+1e-6)) {
				t.Errorf("%s: power %g W exceeds budget %g W", name, sol.Metrics.TotalPower, budget)
			}
			certifyMean(t, name, c, nil, meanProblem(c, "c2", budget, nil, nil), sol, certGapTol)
		}
	}
}

// TestDualsRejectHostileOptions: a NaN or +Inf class delay bound must be
// rejected with an error naming the index, never solved. A NaN class bound
// used to leave its class unbounded.
func TestDualsRejectHostileOptions(t *testing.T) {
	c := symCluster(2, 2, 0.5)
	inf, nan := math.Inf(1), math.NaN()
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

// FuzzMeanDuals drives the C2 budget and delay weights (through
// minimizeDelayWeighted), the C3a bound, the C3b class bounds and one tail
// bound (x, p) on a two-tier cluster with one non-convex power table. Every
// call must either fail or converge to finite speeds inside the speed box, a
// finite objective, and its constraint met within 1e-6 (the tail bound
// within 1e-9); none may panic. Every C2, C3a and C3b answer must also
// certify its optimality (certify) within certGapTol. The corpus starts
// from NaN and infinite
// weights, the hostile values of TestDualsRejectHostileOptions and
// TestMinimizeEnergyTailErrors, from bounds just below the delays at the
// slowest point of the table's cheaper part (weighted 1000.67, per class
// 3.59 and 1997.7), where the ascent once gave up, and from tail bounds next
// to class 1's p95 at the slowest and the fastest corner (9473.5, 0.6833).
// At (59.08, 0.633) two tail linearizations once alternated between points
// 8e-10 apart in power, within the dual's own tolerance. At C3b bounds
// (2.019375, 1997) the ascent on the table's slower part stalled from ν = 0,
// and C3b returned the other part's point at 107.0 W, 10% above that part's
// 96.9 W optimum, as converged (solveParts now restarts such a part). At
// budget 91.4444 (w = (66, 1)), near the least power, C2 certified only to
// 4.33e-8 relative while the tier argmin took its Newton steps on
// difference quotients, and at the tail bound (1.0705, 0.6333) the tail
// linearizations gave up unconverged after 18 iterations and 1476 dual
// points; with exact slopes they settle after 4.
func FuzzMeanDuals(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	seeds := [][8]float64{
		{500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 8.0, 0.95},
		{71.42857142857143, 943.0, inf, -152.91666666666666, inf, 2.5, inf, 0.5},
		{95.0041, 1000.66, 1.0, 0.0, 3.59, 1997.0, 5000.0, 0.99},
		{500.0, 1.0, nan, 1.0, nan, 5.0, nan, 0.95},
		{500.0, 1.0, inf, 1.0, inf, 5.0, 8.0, nan},
		{500.0, 1.0, 1.0, -inf, 5.0, nan, -inf, 0.9},
		{inf, inf, 0.0, 1.0, -inf, inf, 1e-300, 1e-300},
		{nan, nan, 1e-310, 0.0, 1e-9, 1e-300, 4.0, 1.0},
		{500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 3.0, 0.5},
		{500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 2000.0, 0.9},
		{500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 9473.0, 0.95},
		{500.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.6834, 0.95},
		{500.0, -11.0, 58.125, -7.0, -153.0, -5.8, 59.07593333333334, 0.6333333333333333},
		{95.0041, 10316.6, 81.0, -81.0, 2.019375, 1997.0, 5000.0, -15.01},
		{91.44444444444444, -7.6, 66.0, 1.0, -89.0, 130.0, 8.0, -19.61},
		{500.0, -11.0, 58.125, -0.7, -91.0, 22.5778, 1.070499074074074, 0.6333333333333333},
	}
	for _, a := range seeds {
		f.Add(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
	}
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
		tol := certGapTol
		w := []float64{w0, w1}
		if sol, err := minimizeDelayWeighted(c, budget, w); err == nil {
			check(t, "C2", sol, sol.Metrics.TotalPower, budget, 1e-6)
			certifyMean(t, "C2", c, w, meanProblem(c, "c2", budget, w, nil), sol, tol)
		}
		if sol, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: bound}); err == nil {
			check(t, "C3a", sol, sol.Metrics.WeightedDelay, bound, 1e-6)
			certifyMean(t, "C3a", c, nil, meanProblem(c, "c3a", bound, nil, nil), sol, tol)
		}
		bounds := []float64{b0, b1}
		if sol, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds}); err == nil {
			for k, b := range bounds {
				if b > 0 {
					check(t, fmt.Sprintf("C3b class %d", k), sol, sol.Metrics.Delay[k], b, 1e-6)
				}
			}
			certifySLA(t, "C3b", c, bounds, nil, sol, tol)
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
