package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHypoexpSingleStageIsExponential(t *testing.T) {
	h, err := NewHypoexponential([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 0.5, 1, 3} {
		want := 1 - math.Exp(-2*x)
		if got := h.CDF(x); !almostEq(got, want, 1e-12) {
			t.Errorf("CDF(%g) = %g, want %g", x, got, want)
		}
	}
	if got := h.Quantile(0.5); !almostEq(got, math.Ln2/2, 1e-9) {
		t.Errorf("median = %g", got)
	}
}

func TestHypoexpTwoStageClosedForm(t *testing.T) {
	// Rates 1 and 2: F(t) = 1 − 2e^{−t} + e^{−2t}.
	h, err := NewHypoexponential([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.2, 1, 2.5} {
		want := 1 - 2*math.Exp(-x) + math.Exp(-2*x)
		if got := h.CDF(x); !almostEq(got, want, 1e-10) {
			t.Errorf("CDF(%g) = %g, want %g", x, got, want)
		}
	}
	if !almostEq(h.Mean(), 1.5, 1e-12) {
		t.Errorf("mean = %g", h.Mean())
	}
}

func TestHypoexpEqualRatesIsErlang(t *testing.T) {
	// Equal rates are the Erlang special case; uniformization must match
	// the Erlang-2 CDF 1 − e^{−t}(1 + t) to near machine precision.
	h, err := NewHypoexponential([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1, 2, 4} {
		want := 1 - math.Exp(-x)*(1+x)
		if got := h.CDF(x); !almostEq(got, want, 1e-10) {
			t.Errorf("CDF(%g) = %g, want %g", x, got, want)
		}
	}
	// Three equal rates → Erlang-3.
	h3, err := NewHypoexponential([]float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	x := 1.5
	lt := 2 * x
	wantE3 := 1 - math.Exp(-lt)*(1+lt+lt*lt/2)
	if got := h3.CDF(x); !almostEq(got, wantE3, 1e-10) {
		t.Errorf("Erlang-3 CDF(%g) = %g, want %g", x, got, wantE3)
	}
}

func TestHypoexpNearEqualRatesStable(t *testing.T) {
	// The regime that breaks the partial-fraction closed form: rates that
	// differ in the 7th digit. The CDF must stay in [0,1], monotone, and
	// within a hair of the exact-equal-rates Erlang value.
	h, err := NewHypoexponential([]float64{1, 1 + 1e-7, 1 + 2e-7})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1, 3, 8} {
		wantE3 := 1 - math.Exp(-x)*(1+x+x*x/2)
		if got := h.CDF(x); !almostEq(got, wantE3, 1e-6) {
			t.Errorf("near-equal CDF(%g) = %g, want ≈%g", x, got, wantE3)
		}
	}
}

func TestHypoexpLargeRateTimeProduct(t *testing.T) {
	// Λt far beyond exp underflow (Λt ≈ 5000): the left-truncated Poisson
	// entry must keep the tail accurate. Single stage ⇒ exact exponential.
	h, err := NewHypoexponential([]float64{1000, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// At t = 5 the fast stage is long done; survival ≈ e^{−0.5·t} modulo
	// the convolution with the fast stage.
	got := h.Survival(5)
	if !(got > 0 && got < 1) {
		t.Fatalf("survival out of range: %g", got)
	}
	// Exact two-stage formula in a well-separated regime:
	// S(t) = (r1 e^{−r2 t} − r2 e^{−r1 t})/(r1 − r2).
	want := (1000*math.Exp(-0.5*5) - 0.5*math.Exp(-1000*5)) / (1000 - 0.5)
	if !almostEq(got, want, 1e-9) {
		t.Errorf("survival = %g, want %g", got, want)
	}
}

func TestHypoexpCDFProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		r := []float64{
			0.2 + math.Mod(math.Abs(a), 5),
			0.2 + math.Mod(math.Abs(b), 5),
			0.2 + math.Mod(math.Abs(c), 5),
		}
		if math.IsNaN(r[0] + r[1] + r[2]) {
			return true
		}
		h, err := NewHypoexponential(r)
		if err != nil {
			return false
		}
		// CDF in [0,1], monotone, 0 at 0.
		if h.CDF(0) != 0 || h.CDF(-1) != 0 {
			return false
		}
		prev := 0.0
		for _, x := range []float64{0.1, 0.5, 1, 2, 5, 20} {
			v := h.CDF(x)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		// Quantile inverts CDF.
		for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
			q := h.Quantile(p)
			if !almostEq(h.CDF(q), p, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHypoexpQuantileEdges(t *testing.T) {
	h, _ := NewHypoexponential([]float64{1, 3})
	if h.Quantile(0) != 0 {
		t.Error("quantile at 0")
	}
	if !math.IsInf(h.Quantile(1), 1) {
		t.Error("quantile at 1")
	}
}

func TestHypoexpInvalidInputs(t *testing.T) {
	if _, err := NewHypoexponential(nil); err == nil {
		t.Error("empty rates accepted")
	}
	if _, err := NewHypoexponential([]float64{0}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewHypoexponential([]float64{-1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := HypoexpFromMeans([]float64{1, 0}); err == nil {
		t.Error("zero mean accepted")
	}
}

func TestEndToEndQuantile(t *testing.T) {
	// Stage means 1 and 0.5 → rates 1 and 2; median of the two-stage sum.
	q, err := EndToEndQuantile([]float64{1, 0.5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := NewHypoexponential([]float64{1, 2})
	if !almostEq(q, h.Quantile(0.5), 1e-9) {
		t.Errorf("quantile = %g", q)
	}
	// Unstable route gives +Inf, not an error.
	q, err = EndToEndQuantile([]float64{1, math.Inf(1)}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(q, 1) {
		t.Errorf("unstable quantile = %g", q)
	}
}

func TestSurvivalComplementsCDF(t *testing.T) {
	h, _ := NewHypoexponential([]float64{0.5, 1.5, 4})
	for _, x := range []float64{0.3, 1, 5} {
		if !almostEq(h.CDF(x)+h.Survival(x), 1, 1e-12) {
			t.Errorf("CDF+Survival != 1 at %g", x)
		}
	}
}
