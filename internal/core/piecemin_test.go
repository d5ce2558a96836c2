package core

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/workload"
)

// countingPower counts a tier's evaluations: TierModel.Eval asks its power
// model for the busy power once per stable evaluation, and every speed in a
// tier's range is stable.
type countingPower struct {
	power.Model
	n *int
}

func (p countingPower) BusyPower(s float64) float64 {
	*p.n++
	return p.Model.BusyPower(s)
}

// budgetProblems returns the C3a and C3b problems of the benchmark's plan
// grid at its middle level on the heavy-database cluster at the given load:
// the aggregate delay bound 45% of the way from the fastest point's delay to
// that of the speeds a fifth of the way up each range, and per-class bounds
// of 6, 6 and 2.5 times each class's fastest delay.
func budgetProblems(t *testing.T, c *cluster.Cluster) map[string]*dualProblem {
	t.Helper()
	lo, hi := c.SpeedBounds()
	slow := make([]float64, len(lo))
	for j := range lo {
		slow[j] = lo[j] + 0.2*(hi[j]-lo[j])
	}
	mHi, mSlow := dualPinMetrics(c, hi), dualPinMetrics(c, slow)
	bound := mHi.WeightedDelay + 0.45*(mSlow.WeightedDelay-mHi.WeightedDelay)
	bounds := []float64{6 * mHi.Delay[0], 6 * mHi.Delay[1], 2.5 * mHi.Delay[2]}
	return map[string]*dualProblem{
		"c3a": meanProblem(c, "c3a", bound, nil, nil),
		"c3b": meanProblem(c, "c3b", 0, nil, bounds),
	}
}

// Evaluation budgets of TestArgminEvaluationBudget: the values measured,
// rounded up, with an evaluation with or without derivatives counted as one
// (DESIGN.md "Solvers" records what the earlier argmins spent).
const (
	budgetSolveEvals = 173 // mean tier evaluations per C3a or C3b solve
	budgetPieceCold  = 11  // mean pieceMin evaluations per piece from the midpoint
	budgetPieceWarm  = 8   // the same, started from the last minimizer
	budgetPieceNoise = 10  // on a slope whose sign is rounding noise at the root
)

// budgetDualPoints are the dual points each solve of
// TestArgminEvaluationBudget takes, C3a then C3b at each load, 81 in all.
// Cheaper argmins save evaluations, never a step of the ascent.
var budgetDualPoints = []int{11, 15, 11, 17, 11, 16}

// TestArgminEvaluationBudget holds the tier evaluations the duals spend on
// the heavy-database cluster's C3a and C3b solves at loads 0.8, 1.0 and 1.2,
// counted per solve (and the solve's dual points) and, through a counting
// closure around the tier Lagrangian, per pieceMin call: at multipliers
// closing geometrically onto each solution's, ν·(1 − 2^−i), from the
// midpoint and from the piece's last minimizer as argmin starts it. A
// synthetic piece whose slope sign is rounding noise at the root (a large
// constant in both halves of the slope) must stop at a converged Newton step
// rather than halve its bracket down to 1e-12 of the speed.
func TestArgminEvaluationBudget(t *testing.T) {
	var solveEvals, solves, cold, warm, pieces int
	for _, load := range []float64{0.8, 1.0, 1.2} {
		c := workload.Enterprise3TierHeavyDB(load)
		prs := budgetProblems(t, c)
		for _, kind := range []string{"c3a", "c3b"} {
			pr := prs[kind]
			// The counting models go in before anything is evaluated, so
			// the memos start empty.
			tf := mustTierFns(t, c)
			n := 0
			for j := range tf.tiers {
				tf.tiers[j].m.Power = countingPower{tf.tiers[j].m.Power, &n}
			}
			sol, err := tf.solveParts(pr, nil)
			if err != nil {
				t.Fatalf("%s load %g: %v", kind, load, err)
			}
			if !sol.Result.Converged {
				t.Fatalf("%s load %g: the dual did not converge", kind, load)
			}
			t.Logf("%s load %g: %d tier evaluations over %d dual points", kind, load, n, sol.Result.Evals)
			if want := budgetDualPoints[solves]; sol.Result.Evals != want {
				t.Errorf("%s load %g: %d dual points, want %d", kind, load, sol.Result.Evals, want)
			}
			solveEvals += n
			solves++

			theta := make([]float64, tf.width())
			nu := make([]float64, len(sol.Multipliers))
			tf = mustTierFns(t, c)
			for j := range tf.tiers {
				f := &tf.tiers[j]
				for i := 1; i <= 16; i++ {
					for r, v := range sol.Multipliers {
						nu[r] = v * (1 - math.Ldexp(1, -i))
					}
					alpha := pr.weights(nu, theta)
					calls := 0
					obj := func(s float64, slopes bool) (float64, float64, float64) {
						calls++
						return f.lagrangian(s, slopes, alpha, theta)
					}
					for p := 1; p < len(f.knots); p++ {
						a, b := f.knots[p-1], f.knots[p]
						calls = 0
						xc, _ := pieceMin(obj, a, b, math.NaN())
						cold += calls
						calls = 0
						x, _ := pieceMin(obj, a, b, f.warm[p-1])
						warm += calls
						if x > a && x < b {
							f.warm[p-1] = x
						}
						if !almostEq(x, xc, 1e-9) {
							t.Errorf("%s load %g tier %d: warm minimizer %.17g, cold %.17g", kind, load, j, x, xc)
						}
						pieces++
					}
				}
			}
		}
	}
	meanSolve := float64(solveEvals) / float64(solves)
	meanCold, meanWarm := float64(cold)/float64(pieces), float64(warm)/float64(pieces)
	t.Logf("mean per solve %.1f tier evaluations; per piece %.2f from the midpoint, %.2f warm", meanSolve, meanCold, meanWarm)
	if meanSolve > budgetSolveEvals {
		t.Errorf("mean tier evaluations per solve %.1f, budget %d", meanSolve, budgetSolveEvals)
	}
	if meanCold > budgetPieceCold {
		t.Errorf("mean evaluations per piece from the midpoint %.2f, budget %d", meanCold, budgetPieceCold)
	}
	if meanWarm > budgetPieceWarm {
		t.Errorf("mean evaluations per warm-started piece %.2f, budget %d", meanWarm, budgetPieceWarm)
	}

	// The slope 1 − 1/s² of s + 1/s, computed as the difference of two
	// terms near 1e6: at the root its sign is rounding noise ~1e-10 wide.
	n := 0
	noisy := func(s float64, slopes bool) (float64, float64, float64) {
		n++
		return 1e6 + s + 1/s, (1e6 + 1) - (1e6 + 1/(s*s)), 2 / (s * s * s)
	}
	x, fx := pieceMin(noisy, 0.5, 2, math.NaN())
	t.Logf("noisy slope: %d evaluations, minimizer %.12g", n, x)
	if n > budgetPieceNoise {
		t.Errorf("noisy slope: %d evaluations, budget %d (a halving tail)", n, budgetPieceNoise)
	}
	if v, _, _ := noisy(x, false); math.Abs(x-1) > 1e-6 || fx != v {
		t.Errorf("noisy slope: minimizer %g with value %g, want near 1 and the value there", x, fx)
	}
}

// FuzzPieceMinStart: pieceMin finds the same minimizer, within 1e-9
// relative, whatever start it is given (inside the piece, at an end, outside
// it, or NaN), and the value it returns is the function's value at the
// minimizer, bit for bit. The functions are sums of non-negative multiples of
// s², 1/s and 1/(s − a/2) on [a, b], each convex in 1/s, with their exact
// derivatives, and, when kind picks one of its three tiers, the tier
// Lagrangian of the heavy-database cluster at load 1 with power weight 1 and
// the class delay weights |w_k|.
func FuzzPieceMinStart(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, seed := range []struct {
		a, b, x0, w0, w1, w2 float64
		kind                 uint8
	}{
		{0.5, 2, nan, 1, 1, 1, 3},
		{0.5, 2, 0.5, 1, 1, 0, 3},
		{0.5, 2, 2, 0, 1, 1, 3},
		{0.5, 2, 1.2599, 1, 4, 0, 3},
		{1, 8, -3, 5, 0.01, 2, 3},
		{1, 8, inf, 0.001, 100, 0, 3},
		{0.1, 1000, 999, 1, 1, 1, 3},
		{0, 0, nan, 1, 1, 1, 0},
		{0, 0, 4, 10, 50, 500, 0},
		{0, 0, 100, 1e3, 1e3, 1e3, 1},
		{0, 0, 1.5, 0, 0, 1e4, 2},
		{0, 0, 23.9, 1e6, 0, 0, 2},
		{0, 0, nan, 0.1, 0.1, 0.1, 1},
	} {
		f.Add(seed.a, seed.b, seed.x0, seed.w0, seed.w1, seed.w2, seed.kind)
	}
	tf, err := newTierFns(workload.Enterprise3TierHeavyDB(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b, x0, w0, w1, w2 float64, kind uint8) {
		w := []float64{math.Abs(w0), math.Abs(w1), math.Abs(w2)}
		for _, v := range w {
			if !(v <= 1e9) {
				t.Skip()
			}
		}
		var obj func(float64, bool) (float64, float64, float64)
		if j := int(kind % 4); j < len(tf.tiers) {
			a, b = tf.lo[j], tf.hi[j]
			obj = func(s float64, slopes bool) (float64, float64, float64) {
				return tf.tiers[j].lagrangian(s, slopes, 1, w)
			}
		} else {
			if !(a > 0 && b > a && b <= 1e6) {
				t.Skip()
			}
			obj = func(s float64, _ bool) (float64, float64, float64) {
				p := s - a/2
				return w[0]*s*s + w[1]/s + w[2]/p,
					2*w[0]*s - w[1]/(s*s) - w[2]/(p*p),
					2*w[0] + 2*w[1]/(s*s*s) + 2*w[2]/(p*p*p)
			}
		}
		want, _ := pieceMin(obj, a, b, math.NaN())
		x, fx := pieceMin(obj, a, b, x0)
		if !(x >= a && x <= b) {
			t.Fatalf("minimizer %g outside [%g, %g]", x, a, b)
		}
		if math.Abs(x-want) > 1e-9*want {
			t.Errorf("from %g: minimizer %.17g, from the midpoint %.17g", x0, x, want)
		}
		if v, _, _ := obj(x, false); math.Float64bits(fx) != math.Float64bits(v) {
			t.Errorf("from %g: value %.17g returned at %.17g, which evaluates to %.17g", x0, fx, x, v)
		}
	})
}
