package opt

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i+1 < len(x); i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

func mustBox(t *testing.T, lo, hi []float64) Box {
	t.Helper()
	b, err := NewBox(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBoxBasics(t *testing.T) {
	b := mustBox(t, []float64{0, -1}, []float64{2, 1})
	if b.Dim() != 2 {
		t.Fatal("dim")
	}
	x := b.Project([]float64{-5, 0.5})
	if x[0] != 0 || x[1] != 0.5 {
		t.Errorf("project = %v", x)
	}
	if !b.Contains([]float64{1, 0}) || b.Contains([]float64{3, 0}) {
		t.Error("contains misbehaves")
	}
	c := b.Center()
	if c[0] != 1 || c[1] != 0 {
		t.Errorf("center = %v", c)
	}
	if b.Width(0) != 2 {
		t.Error("width")
	}
	if _, err := NewBox([]float64{1}, []float64{0}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := NewBox(nil, nil); err == nil {
		t.Error("empty box accepted")
	}
	if _, err := NewBox([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 1.7) * (x - 1.7) }
	x, fx, evals := GoldenSection(f, -10, 10, 1e-10)
	if !almostEq(x, 1.7, 1e-7) {
		t.Errorf("argmin = %g", x)
	}
	if fx > 1e-12 {
		t.Errorf("min = %g", fx)
	}
	if evals <= 0 || evals > 500 {
		t.Errorf("evals = %d", evals)
	}
}

func TestGoldenSectionWithInfEdge(t *testing.T) {
	// Queueing-style objective: +Inf left of 1 (instability), then convex.
	f := func(x float64) float64 {
		if x <= 1 {
			return math.Inf(1)
		}
		return 1/(x-1) + x
	}
	// True minimum at x = 2.
	x, _, _ := GoldenSection(f, 0, 10, 1e-10)
	if !almostEq(x, 2, 1e-6) {
		t.Errorf("argmin = %g, want 2", x)
	}
}

func TestBisect(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return x*x*x - 8 }, 0, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x, 2, 1e-9) {
		t.Errorf("root = %g", x)
	}
	// Exact endpoints.
	x, err = Bisect(func(x float64) float64 { return x }, 0, 1, 0)
	if err != nil || x != 0 {
		t.Errorf("root at lo: %g, %v", x, err)
	}
	if _, err := Bisect(func(x float64) float64 { return 1 }, 0, 1, 0); err == nil {
		t.Error("no sign change accepted")
	}
}

func TestBisectDecreasing(t *testing.T) {
	// g(x) = 10/x, target 2 → x = 5.
	g := func(x float64) float64 { return 10 / x }
	x, err := BisectDecreasing(g, 2, 0.1, 100, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x, 5, 1e-8) {
		t.Errorf("x = %g", x)
	}
	if _, err := BisectDecreasing(g, 200, 0.1, 100, 0); err == nil {
		t.Error("unreachable high target accepted")
	}
	if _, err := BisectDecreasing(g, 0.01, 0.1, 100, 0); err == nil {
		t.Error("unreachable low target accepted")
	}
	// Infeasible (+Inf) left region treated as above-target.
	gInf := func(x float64) float64 {
		if x < 1 {
			return math.Inf(1)
		}
		return 10 / x
	}
	x, err = BisectDecreasing(gInf, 2, 0.5, 100, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x, 5, 1e-8) {
		t.Errorf("x with inf region = %g", x)
	}
}

func TestNelderMeadSphere(t *testing.T) {
	box := mustBox(t, []float64{-5, -5, -5}, []float64{5, 5, 5})
	r := NelderMead(sphere, box, []float64{3, -4, 2}, NelderMeadOptions{})
	if r.F > 1e-8 {
		t.Errorf("sphere min = %g at %v", r.F, r.X)
	}
	if !r.Converged {
		t.Error("should converge")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	box := mustBox(t, []float64{-2, -2}, []float64{2, 2})
	r := NelderMead(rosenbrock, box, []float64{-1.2, 1}, NelderMeadOptions{MaxIters: 5000})
	if !almostEq(r.X[0], 1, 1e-3) || !almostEq(r.X[1], 1, 1e-3) {
		t.Errorf("rosenbrock argmin = %v (f=%g)", r.X, r.F)
	}
}

func TestNelderMeadRespectsBox(t *testing.T) {
	// Unconstrained minimum at (−3, −3) lies outside the box; solution
	// must land on the boundary (0, 0).
	f := func(x []float64) float64 {
		return (x[0]+3)*(x[0]+3) + (x[1]+3)*(x[1]+3)
	}
	box := mustBox(t, []float64{0, 0}, []float64{5, 5})
	r := NelderMead(f, box, []float64{2, 2}, NelderMeadOptions{})
	if !box.Contains(r.X) {
		t.Fatalf("solution %v escaped the box", r.X)
	}
	if !almostEq(r.X[0], 0, 1e-4) || !almostEq(r.X[1], 0, 1e-4) {
		t.Errorf("boundary argmin = %v", r.X)
	}
}

func TestNelderMeadInfeasibleRegions(t *testing.T) {
	// +Inf for x+y > 1.5 (queueing stability wall); min of −x−y sits on it.
	f := func(x []float64) float64 {
		if x[0]+x[1] > 1.5 {
			return math.Inf(1)
		}
		return -x[0] - x[1]
	}
	box := mustBox(t, []float64{0, 0}, []float64{2, 2})
	r := NelderMead(f, box, []float64{0.1, 0.1}, NelderMeadOptions{MaxIters: 2000})
	if !almostEq(r.X[0]+r.X[1], 1.5, 1e-3) {
		t.Errorf("wall argmin = %v (sum=%g)", r.X, r.X[0]+r.X[1])
	}
}

func TestAugmentedLagrangianKnownSolution(t *testing.T) {
	// min x² + y² s.t. x + y ≥ 2 (i.e. 2 − x − y ≤ 0); solution (1, 1), f = 2.
	f := sphere
	g := []Constraint{func(x []float64) float64 { return 2 - x[0] - x[1] }}
	box := mustBox(t, []float64{-5, -5}, []float64{5, 5})
	r := AugmentedLagrangian(f, g, box, []float64{0, 0}, AugLagOptions{})
	if !r.Converged {
		t.Fatalf("did not converge: %v", r)
	}
	if !almostEq(r.F, 2, 1e-3) {
		t.Errorf("constrained min = %g, want 2", r.F)
	}
	if !almostEq(r.X[0], 1, 1e-2) || !almostEq(r.X[1], 1, 1e-2) {
		t.Errorf("argmin = %v, want (1,1)", r.X)
	}
	// The constraint must hold (tolerance).
	if v := g[0](r.X); v > 1e-4 {
		t.Errorf("constraint violated by %g", v)
	}
}

func TestAugmentedLagrangianInactiveConstraint(t *testing.T) {
	// Constraint x+y ≤ 100 never binds: result equals the unconstrained one.
	f := func(x []float64) float64 { return (x[0]-1)*(x[0]-1) + (x[1]-2)*(x[1]-2) }
	g := []Constraint{func(x []float64) float64 { return x[0] + x[1] - 100 }}
	box := mustBox(t, []float64{-5, -5}, []float64{5, 5})
	r := AugmentedLagrangian(f, g, box, []float64{0, 0}, AugLagOptions{})
	if !almostEq(r.X[0], 1, 1e-3) || !almostEq(r.X[1], 2, 1e-3) {
		t.Errorf("argmin = %v, want (1,2)", r.X)
	}
}

func TestAugmentedLagrangianTwoConstraints(t *testing.T) {
	// min (x−3)² + (y−3)² s.t. x ≤ 1, y ≤ 2 → (1, 2).
	f := func(x []float64) float64 { return (x[0]-3)*(x[0]-3) + (x[1]-3)*(x[1]-3) }
	gs := []Constraint{
		func(x []float64) float64 { return x[0] - 1 },
		func(x []float64) float64 { return x[1] - 2 },
	}
	box := mustBox(t, []float64{-5, -5}, []float64{5, 5})
	r := AugmentedLagrangian(f, gs, box, []float64{0, 0}, AugLagOptions{})
	if !almostEq(r.X[0], 1, 1e-2) || !almostEq(r.X[1], 2, 1e-2) {
		t.Errorf("argmin = %v, want (1,2)", r.X)
	}
}

func TestAugmentedLagrangianNoConstraints(t *testing.T) {
	box := mustBox(t, []float64{-5, -5}, []float64{5, 5})
	r := AugmentedLagrangian(sphere, nil, box, []float64{3, 3}, AugLagOptions{})
	if r.F > 1e-8 {
		t.Errorf("unconstrained fallback min = %g", r.F)
	}
}

func TestAugmentedLagrangianInfeasibleProblem(t *testing.T) {
	// x ≥ 10 is impossible inside the box: the solver must report
	// non-convergence rather than a fake answer.
	g := []Constraint{func(x []float64) float64 { return 10 - x[0] }}
	box := mustBox(t, []float64{0, 0}, []float64{1, 1})
	r := AugmentedLagrangian(sphere, g, box, []float64{0.5, 0.5}, AugLagOptions{OuterIters: 8})
	if r.Converged {
		t.Error("infeasible problem reported as converged")
	}
}

func TestMultiStartEscapesLocalMin(t *testing.T) {
	// Double well: local min near x=−1 (f=0.5), global near x=2 (f=0).
	f := func(x []float64) float64 {
		v := x[0]
		return math.Min((v+1)*(v+1)+0.5, (v-2)*(v-2))
	}
	box := mustBox(t, []float64{-4}, []float64{4})
	solve := func(x0 []float64) Result {
		return NelderMead(f, box, x0, NelderMeadOptions{})
	}
	r := MultiStart(solve, box, 8)
	if !almostEq(r.X[0], 2, 1e-3) {
		t.Errorf("multistart landed at %v (f=%g)", r.X, r.F)
	}
	// Degenerate request.
	r1 := MultiStart(solve, box, 0)
	if len(r1.X) != 1 {
		t.Error("starts<1 should still run once")
	}
}

func TestMultiStartAccumulatesEvals(t *testing.T) {
	box := mustBox(t, []float64{-1}, []float64{1})
	solve := func(x0 []float64) Result {
		return NelderMead(sphere, box, x0, NelderMeadOptions{})
	}
	r1 := MultiStart(solve, box, 1)
	r4 := MultiStart(solve, box, 4)
	if r4.Evals <= r1.Evals {
		t.Errorf("evals not accumulated: %d vs %d", r4.Evals, r1.Evals)
	}
}

// Property: for random convex quadratics Nelder–Mead and golden-section
// search agree with the analytical box-clamped minimum in 1D.
func TestSolversAgreeOnQuadraticsQuick(t *testing.T) {
	box := mustBox(t, []float64{-2}, []float64{2})
	f := func(center float64) bool {
		c := math.Mod(center, 5)
		if math.IsNaN(c) {
			return true
		}
		want := math.Max(-2, math.Min(2, c))
		obj := func(x []float64) float64 { return (x[0] - c) * (x[0] - c) }
		nm := NelderMead(obj, box, []float64{0}, NelderMeadOptions{})
		gx, _, _ := GoldenSection(func(x float64) float64 { return (x - c) * (x - c) }, -2, 2, 1e-10)
		return almostEq(nm.X[0], want, 1e-4) && almostEq(gx, want, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResultString(t *testing.T) {
	r := Result{X: []float64{1}, F: 2, Iters: 3, Evals: 4, Converged: true}
	if len(r.String()) == 0 {
		t.Error("empty string")
	}
}

func TestGoldenSectionHandlesTolDefault(t *testing.T) {
	// tol <= 0 falls back to a sane default instead of looping forever.
	x, _, evals := GoldenSection(func(x float64) float64 { return x * x }, -1, 1, -5)
	if math.Abs(x) > 1e-6 {
		t.Errorf("argmin = %g", x)
	}
	if evals > 500 {
		t.Errorf("evals = %d", evals)
	}
}

func TestBisectDefaultTol(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return x - 0.25 }, 0, 1, -1)
	if err != nil || math.Abs(x-0.25) > 1e-6 {
		t.Errorf("root = %g, %v", x, err)
	}
}
