package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestErlangBKnownValues(t *testing.T) {
	// B(c, a) textbook values.
	cases := []struct {
		c    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 1.0 / 5}, // a²/2 / (1+a+a²/2) = 0.5/2.5
		{2, 2, 0.4},     // 2/(1+2+2)
		{0, 1, 1},       // no servers: always blocked
		{5, 0, 0},       // no load: never blocked
	}
	for _, c := range cases {
		if got := ErlangB(c.c, c.a); !almostEq(got, c.want, 1e-12) {
			t.Errorf("B(%d, %g) = %g, want %g", c.c, c.a, got, c.want)
		}
	}
	if !math.IsNaN(ErlangB(-1, 1)) || !math.IsNaN(ErlangB(1, -1)) {
		t.Error("invalid args should give NaN")
	}
}

func TestErlangBMonotone(t *testing.T) {
	f := func(raw float64) bool {
		a := math.Mod(math.Abs(raw), 20)
		if math.IsNaN(a) {
			return true
		}
		prev := 1.1
		for c := 0; c <= 30; c++ {
			b := ErlangB(c, a)
			if b < 0 || b > 1 || b > prev+1e-12 {
				return false // blocking must decrease with more servers
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// C(1, a) = a for a < 1 (M/M/1 delay probability is ρ).
	for _, a := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, a); !almostEq(got, a, 1e-12) {
			t.Errorf("C(1, %g) = %g", a, got)
		}
	}
	// Saturation.
	if got := ErlangC(2, 2.5); got != 1 {
		t.Errorf("saturated C = %g", got)
	}
	// C(2,1): B(2,1)=0.2, ρ=0.5 → 0.2/(1−0.5·0.8) = 1/3.
	if got := ErlangC(2, 1); !almostEq(got, 1.0/3, 1e-12) {
		t.Errorf("C(2,1) = %g, want 1/3", got)
	}
	if !math.IsNaN(ErlangC(0, 1)) {
		t.Error("C with zero servers should be NaN")
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	m1, _ := NewMM1(0.7, 1)
	mc, err := NewMMc(0.7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(mc.MeanWait(), m1.MeanWait(), 1e-12) {
		t.Errorf("M/M/c with c=1 wait %g != M/M/1 %g", mc.MeanWait(), m1.MeanWait())
	}
	if !almostEq(mc.MeanResponse(), m1.MeanResponse(), 1e-12) {
		t.Errorf("response mismatch")
	}
}

func TestMMcKnownValue(t *testing.T) {
	// M/M/2 with λ=1, μ=1: a=1, ρ=0.5, C=1/3, E[W] = (1/3)/(2−1) = 1/3.
	q, _ := NewMMc(1, 1, 2)
	if got := q.MeanWait(); !almostEq(got, 1.0/3, 1e-12) {
		t.Errorf("E[W] = %g, want 1/3", got)
	}
	if got := q.MeanResponse(); !almostEq(got, 4.0/3, 1e-12) {
		t.Errorf("E[T] = %g, want 4/3", got)
	}
}

func TestMMcPoolingBeatsSplitting(t *testing.T) {
	// A pooled M/M/2 always beats two separate M/M/1 at the same total load.
	lam, mu := 1.4, 1.0
	pooled, _ := NewMMc(lam, mu, 2)
	split, _ := NewMM1(lam/2, mu)
	if !(pooled.MeanResponse() < split.MeanResponse()) {
		t.Errorf("pooled %g should beat split %g", pooled.MeanResponse(), split.MeanResponse())
	}
}

func TestMMcUnstable(t *testing.T) {
	q, _ := NewMMc(5, 1, 3)
	if q.Stable() {
		t.Fatal("should be unstable")
	}
	if !math.IsInf(q.MeanWait(), 1) || !math.IsInf(q.MeanResponse(), 1) {
		t.Error("unstable metrics should be +Inf")
	}
}

// TestMMcLittlesLawQuick checks E[T] against the M/M/c queue length through
// Little's law: λ·E[T] = E[N] = C(c,a)·ρ/(1−ρ) + a, with a = λ/μ and
// ρ = a/c.
func TestMMcLittlesLawQuick(t *testing.T) {
	f := func(l, m float64, cRaw uint8) bool {
		c := 1 + int(cRaw%8)
		lam := math.Mod(math.Abs(l), 5)
		mu := 0.2 + math.Mod(math.Abs(m), 3)
		if math.IsNaN(lam) || math.IsNaN(mu) || lam >= mu*float64(c) {
			return true
		}
		q, err := NewMMc(lam, mu, c)
		if err != nil {
			return true
		}
		a := lam / mu
		rho := a / float64(c)
		return almostEq(ErlangC(c, a)*rho/(1-rho)+a, lam*q.MeanResponse(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMMcInvalidParams(t *testing.T) {
	if _, err := NewMMc(1, 1, 0); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := NewMMc(-1, 1, 1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := NewMMc(1, -1, 2); err == nil {
		t.Error("negative mu accepted")
	}
}
