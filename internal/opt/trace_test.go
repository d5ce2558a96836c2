package opt

import (
	"math"
	"testing"
)

func traceBox(t *testing.T) Box {
	t.Helper()
	b, err := NewBox([]float64{-5, -5}, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkTrace(t *testing.T, res Result, name string) {
	t.Helper()
	if len(res.Trace) == 0 {
		t.Fatalf("%s: empty convergence trace", name)
	}
	// The trace covers every outer iteration, in order, with monotone
	// cumulative evaluation counts bounded by the final total.
	for i, e := range res.Trace {
		if e.Iter != i {
			t.Fatalf("%s: trace[%d].Iter = %d", name, i, e.Iter)
		}
		if math.IsNaN(e.F) {
			t.Fatalf("%s: trace[%d].F is NaN", name, i)
		}
		if i > 0 && e.Evals < res.Trace[i-1].Evals {
			t.Fatalf("%s: trace[%d].Evals %d < previous %d", name, i, e.Evals, res.Trace[i-1].Evals)
		}
		if e.Evals > res.Evals {
			t.Fatalf("%s: trace[%d].Evals %d exceeds total %d", name, i, e.Evals, res.Evals)
		}
	}
	// The last recorded objective must be close to the final answer — the
	// trace ends where the solver ends.
	last := res.Trace[len(res.Trace)-1].F
	if math.Abs(last-res.F) > 1e-6*(1+math.Abs(res.F)) {
		t.Fatalf("%s: trace ends at f=%g but result is f=%g", name, last, res.F)
	}
}

func TestNelderMeadTrace(t *testing.T) {
	res := NelderMead(sphere, traceBox(t), []float64{4, 4}, NelderMeadOptions{})
	checkTrace(t, res, "neldermead")
	// The simplex x-spread must shrink toward the tolerance.
	first, last := res.Trace[0].Step, res.Trace[len(res.Trace)-1].Step
	if !(last < first) {
		t.Fatalf("simplex spread did not shrink: %g → %g", first, last)
	}
}

func TestAugmentedLagrangianTrace(t *testing.T) {
	// Minimize x+y subject to x+y ≥ 1 (i.e. 1−x−y ≤ 0): optimum on the
	// constraint boundary, so early iterates violate it and the trace must
	// record shrinking violations and growing penalties.
	f := func(x []float64) float64 { return x[0] + x[1] }
	g := Constraint(func(x []float64) float64 { return 1 - x[0] - x[1] })
	res := AugmentedLagrangian(f, []Constraint{g}, traceBox(t), []float64{-3, -3}, AugLagOptions{})
	checkTrace(t, res, "auglag")
	if math.Abs(res.F-1) > 1e-3 {
		t.Fatalf("auglag f = %g, want ≈ 1", res.F)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Step < res.Trace[i-1].Step {
			t.Fatalf("penalty µ shrank at trace[%d]: %g < %g",
				i, res.Trace[i].Step, res.Trace[i-1].Step)
		}
	}
	if last := res.Trace[len(res.Trace)-1].Violation; last > 1e-4 {
		t.Fatalf("final recorded violation %g, want ≈ 0", last)
	}
}

func TestMultiStartKeepsWinnersTrace(t *testing.T) {
	res := MultiStart(func(x0 []float64) Result {
		return NelderMead(sphere, traceBox(t), x0, NelderMeadOptions{})
	}, traceBox(t), 4)
	checkTrace(t, res, "multistart")
}
