package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/workload"
)

// solverAnswersGolden is the SHA-256 TestSolverAnswersGoldenHash pins,
// recorded before the solvers memoised their tier evaluations.
const solverAnswersGolden = "bbe8564d90cddf79641d94cab39fc1209f0b742130565a514d5b886c1f5b5ebc"

// TestSolverAnswersGoldenHash pins the exact bits of every solver's answer on
// the heavy-database cluster at loads 0.8, 1.0 and 1.2: C2, C3a, C3b,
// MinimizeEnergyTail, C4 and the two uniform speed baselines, followed by a
// C3b sequence over a load sweep on the same cluster, each solve warm-started
// from the last one's multipliers as the online controller chains them. Each
// answer contributes its speeds, multipliers, objective, dual evaluations and
// iterations, and its metrics' total power and class delays. A change to the
// solvers' arithmetic, their stopping rules or the order in which they
// evaluate anything changes the hash. Every answer of a dual also certifies
// its optimality within certGapTol (certifyMean, certifySLA; C4 through its
// speed tuning), so the pinned bits are optimal to 1e-9; the uniform
// baselines are not optima and are only pinned.
func TestSolverAnswersGoldenHash(t *testing.T) {
	h := sha256.New()
	put := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	add := func(name string, sol *Solution, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, _ = fmt.Fprintf(h, "%s %d %d %d %d\n", name, len(sol.Result.X), len(sol.Multipliers), sol.Result.Evals, sol.Result.Iters)
		for _, v := range sol.Result.X {
			put(v)
		}
		for _, v := range sol.Multipliers {
			put(v)
		}
		put(sol.Objective)
		put(sol.Metrics.TotalPower)
		for _, v := range sol.Metrics.Delay {
			put(v)
		}
	}
	for _, load := range []float64{0.8, 1.0, 1.2} {
		c := workload.Enterprise3TierHeavyDB(load)
		lo, hi := c.SpeedBounds()
		slow := make([]float64, len(lo))
		for j := range lo {
			slow[j] = lo[j] + 0.2*(hi[j]-lo[j])
		}
		mLo, mHi, mSlow := dualPinMetrics(c, lo), dualPinMetrics(c, hi), dualPinMetrics(c, slow)
		budget := mLo.TotalPower + 0.4*(mHi.TotalPower-mLo.TotalPower)
		bound := mHi.WeightedDelay + 0.45*(mSlow.WeightedDelay-mHi.WeightedDelay)
		bounds := []float64{6 * mHi.Delay[0], 6 * mHi.Delay[1], 2.5 * mHi.Delay[2]}
		tail := make([]TailBound, len(c.Classes))
		for k := range tail {
			q, err := cluster.DelayQuantile(c, mHi, k, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			tail[k] = TailBound{Delay: 4 * q, Percentile: 0.95}
		}
		name := func(kind string) string { return fmt.Sprintf("%s/%g", kind, load) }
		sol, err := MinimizeDelay(c, DelayOptions{EnergyBudget: budget})
		add(name("c2"), sol, err)
		certifyMean(t, name("c2"), c, nil, meanProblem(c, "c2", budget, nil, nil), sol, certGapTol)
		sol, err = MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: bound})
		add(name("c3a"), sol, err)
		certifyMean(t, name("c3a"), c, nil, meanProblem(c, "c3a", bound, nil, nil), sol, certGapTol)
		sol, err = MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds})
		add(name("c3b"), sol, err)
		certifySLA(t, name("c3b"), c, bounds, nil, sol, certGapTol)
		sol, err = MinimizeEnergyTail(c, TailOptions{Bounds: tail})
		add(name("tail"), sol, err)
		certifySLA(t, name("tail"), c, nil, tail, sol, certGapTol)
		sol, err = MinimizeCost(c, CostOptions{})
		add(name("c4"), sol, err)
		certifyTuning(t, name("c4"), sol)
		sol, err = UniformDelayBaseline(c, budget)
		add(name("uniform-delay"), sol, err)
		sol, err = UniformEnergyBaseline(c, bound)
		add(name("uniform-energy"), sol, err)
	}
	base := workload.Enterprise3TierHeavyDB(1)
	_, hi := base.SpeedBounds()
	d := dualPinMetrics(base, hi).Delay
	bounds := []float64{1.8 * d[0], 1.85 * d[1], 2.2 * d[2]}
	var nu []float64
	for _, f := range []float64{1, 1.1, 0.9, 1.2, 1.2, 0.8} {
		sol, err := MinimizeEnergyPerClass(workload.ScaleArrivals(base, f),
			EnergyOptions{MaxClassDelay: bounds, WarmStart: nu})
		add(fmt.Sprintf("c3b-warm/%g", f), sol, err)
		certifySLA(t, fmt.Sprintf("c3b-warm/%g", f), workload.ScaleArrivals(base, f), bounds, nil, sol, certGapTol)
		nu = sol.Multipliers
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != solverAnswersGolden {
		t.Errorf("solver answers hash %s, want %s", got, solverAnswersGolden)
	}
}

// certifyTuning fails t unless a MinimizeCost answer's speeds are the speed
// tuning's solveSLA answer on its sized cluster, at tuneMargin of each SLA
// bound, and that answer certifies within certGapTol (certifySLA).
func certifyTuning(t *testing.T, name string, sol *Solution) {
	t.Helper()
	mean, tail := tuneBounds(sol.Cluster)
	tuned, err := solveSLA(sol.Cluster, mean, tail, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(tuned.Cluster.Speeds(), sol.Cluster.Speeds()) {
		t.Errorf("%s: speeds %v, the tuning's %v", name, sol.Cluster.Speeds(), tuned.Cluster.Speeds())
	}
	certifySLA(t, name, sol.Cluster, mean, tail, tuned, certGapTol)
}
