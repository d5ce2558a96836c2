package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMM1KnownValues(t *testing.T) {
	q, err := NewMM1(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Rho() != 0.5 || !q.Stable() {
		t.Fatalf("rho=%g stable=%v", q.Rho(), q.Stable())
	}
	if got := q.MeanResponse(); !almostEq(got, 2, 1e-12) {
		t.Errorf("E[T] = %g, want 2", got)
	}
	if got := q.MeanWait(); !almostEq(got, 1, 1e-12) {
		t.Errorf("E[W] = %g, want 1", got)
	}
}

func TestMM1Unstable(t *testing.T) {
	q, _ := NewMM1(2, 1)
	if q.Stable() {
		t.Fatal("should be unstable")
	}
	for _, v := range []float64{q.MeanResponse(), q.MeanWait()} {
		if !math.IsInf(v, 1) {
			t.Errorf("unstable metric = %g, want +Inf", v)
		}
	}
}

func TestMM1InvalidParams(t *testing.T) {
	if _, err := NewMM1(-1, 1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := NewMM1(1, 0); err == nil {
		t.Error("zero mu accepted")
	}
}

// TestMM1LittlesLaw checks E[T] against the M/M/1 queue length through
// Little's law: λ·E[T] = E[N] = ρ/(1−ρ).
func TestMM1LittlesLaw(t *testing.T) {
	f := func(l, m float64) bool {
		lam := math.Mod(math.Abs(l), 5)
		mu := 0.1 + math.Mod(math.Abs(m), 10)
		if math.IsNaN(lam) || math.IsNaN(mu) || lam >= mu {
			return true
		}
		q, err := NewMM1(lam, mu)
		if err != nil {
			return true
		}
		rho := lam / mu
		return almostEq(rho/(1-rho), lam*q.MeanResponse(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMG1MatchesMM1ForExponential(t *testing.T) {
	mm1, _ := NewMM1(0.6, 1.2)
	mg1, err := NewMG1(0.6, NewExponential(1/1.2))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(mg1.MeanWait(), mm1.MeanWait(), 1e-12) {
		t.Errorf("M/G/1 exp wait %g != M/M/1 %g", mg1.MeanWait(), mm1.MeanWait())
	}
	if !almostEq(mg1.MeanResponse(), mm1.MeanResponse(), 1e-12) {
		t.Errorf("M/G/1 exp response %g != M/M/1 %g", mg1.MeanResponse(), mm1.MeanResponse())
	}
}

func TestMG1DeterministicHalvesWait(t *testing.T) {
	// Classic P-K result: M/D/1 waits are exactly half of M/M/1 waits.
	lam, mean := 0.8, 1.0
	md1, _ := NewMG1(lam, NewDeterministic(mean))
	mm1q, _ := NewMG1(lam, NewExponential(mean))
	if got, want := md1.MeanWait(), mm1q.MeanWait()/2; !almostEq(got, want, 1e-12) {
		t.Errorf("M/D/1 wait = %g, want %g", got, want)
	}
}

func TestMG1WaitIncreasesWithVariance(t *testing.T) {
	lam := 0.5
	prev := -1.0
	for _, cv2 := range []float64{0, 0.25, 1, 2, 8} {
		q, _ := NewMG1(lam, DistForCV2(1, cv2))
		w := q.MeanWait()
		if w <= prev {
			t.Errorf("wait not increasing with CV²: %g after %g", w, prev)
		}
		prev = w
	}
}

func TestMG1UnstableAndInvalid(t *testing.T) {
	q, _ := NewMG1(2, NewExponential(1))
	if q.Stable() || !math.IsInf(q.MeanWait(), 1) || !math.IsInf(q.MeanResponse(), 1) {
		t.Error("unstable M/G/1 should report +Inf")
	}
	if _, err := NewMG1(-1, NewExponential(1)); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := NewMG1(1, nil); err == nil {
		t.Error("nil service accepted")
	}
}
