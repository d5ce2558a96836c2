package opt

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
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
