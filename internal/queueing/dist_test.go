package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestExponentialMoments(t *testing.T) {
	e := NewExponential(2)
	if e.Mean() != 2 || !almostEq(e.SecondMoment(), 8, 1e-12) || e.CV2() != 1 {
		t.Errorf("exp moments: %g %g %g", e.Mean(), e.SecondMoment(), e.CV2())
	}
	s := e.Scale(3)
	if s.Mean() != 6 || s.CV2() != 1 {
		t.Errorf("scaled exp: %v", s)
	}
}

func TestDeterministicMoments(t *testing.T) {
	d := NewDeterministic(4)
	if d.Mean() != 4 || d.SecondMoment() != 16 || d.CV2() != 0 {
		t.Errorf("det moments: %g %g %g", d.Mean(), d.SecondMoment(), d.CV2())
	}
}

func TestErlangMoments(t *testing.T) {
	e := NewErlang(3, 4)
	if e.Mean() != 3 {
		t.Errorf("mean = %g", e.Mean())
	}
	if got := e.CV2(); !almostEq(got, 0.25, 1e-12) {
		t.Errorf("cv2 = %g", got)
	}
	// Var = m²/k = 9/4; E[S²] = 9 + 2.25.
	if got := e.SecondMoment(); !almostEq(got, 11.25, 1e-12) {
		t.Errorf("second moment = %g", got)
	}
	// Erlang-1 is exponential.
	e1 := NewErlang(2, 1)
	ex := NewExponential(2)
	if !almostEq(e1.SecondMoment(), ex.SecondMoment(), 1e-12) {
		t.Error("Erlang-1 should match exponential")
	}
}

func TestHyperExpMoments(t *testing.T) {
	h := HyperExp{P: 0.5, M1: 1, M2: 3}
	if got := h.Mean(); !almostEq(got, 2, 1e-12) {
		t.Errorf("mean = %g", got)
	}
	// E[S²] = 2(0.5·1 + 0.5·9) = 10.
	if got := h.SecondMoment(); !almostEq(got, 10, 1e-12) {
		t.Errorf("second moment = %g", got)
	}
	if got := h.CV2(); !almostEq(got, 10.0/4-1, 1e-12) {
		t.Errorf("cv2 = %g", got)
	}
}

func TestHyperExpCV2Construction(t *testing.T) {
	for _, cv2 := range []float64{1, 1.5, 2, 4, 10} {
		for _, mean := range []float64{0.5, 1, 7} {
			h := NewHyperExpCV2(mean, cv2)
			if got := h.Mean(); !almostEq(got, mean, 1e-9) {
				t.Errorf("cv2=%g mean: got %g want %g", cv2, got, mean)
			}
			if got := h.CV2(); !almostEq(got, cv2, 1e-9) {
				t.Errorf("mean=%g cv2: got %g want %g", mean, got, cv2)
			}
		}
	}
}

func TestScalePreservesCV2(t *testing.T) {
	dists := []ServiceDist{
		NewExponential(1), NewDeterministic(2), NewErlang(1.5, 3),
		NewHyperExpCV2(2, 4),
	}
	f := func(raw float64) bool {
		fac := 0.1 + math.Mod(math.Abs(raw), 10)
		if math.IsNaN(fac) {
			return true
		}
		for _, d := range dists {
			s := d.Scale(fac)
			if !almostEq(s.Mean(), d.Mean()*fac, 1e-9) {
				return false
			}
			if !almostEq(s.CV2(), d.CV2(), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDistForCV2MatchesMoments(t *testing.T) {
	for _, cv2 := range []float64{0, 0.25, 0.5, 1, 2, 5} {
		d := DistForCV2(3, cv2)
		if !almostEq(d.Mean(), 3, 1e-9) {
			t.Errorf("cv2=%g: mean %g", cv2, d.Mean())
		}
		// Erlang rounding means CV² is matched exactly only when 1/cv2
		// is integral; all test values satisfy that.
		if !almostEq(d.CV2(), cv2, 1e-9) {
			t.Errorf("cv2=%g: got %g", cv2, d.CV2())
		}
	}
}

func TestInvalidDistsPanic(t *testing.T) {
	cases := []func(){
		func() { NewExponential(0) },
		func() { NewExponential(-1) },
		func() { NewExponential(math.Inf(1)) },
		func() { NewDeterministic(0) },
		func() { NewErlang(1, 0) },
		func() { NewHyperExpCV2(1, 0.5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
