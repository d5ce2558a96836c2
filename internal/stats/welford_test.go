package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Count() != 0 {
		t.Fatalf("empty count = %d", w.Count())
	}
	for name, v := range map[string]float64{
		"mean": w.Mean(), "var": w.Variance(), "min": w.Min(), "max": w.Max(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty %s = %g, want NaN", name, v)
		}
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if got := w.Mean(); !almostEq(got, 5, 1e-12) {
		t.Errorf("mean = %g, want 5", got)
	}
	// Population variance of this classic data set is 4.
	if got := w.Variance() * 7 / 8; !almostEq(got, 4, 1e-12) {
		t.Errorf("pop variance = %g, want 4", got)
	}
	if got := w.Variance(); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Errorf("sample variance = %g, want %g", got, 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %g/%g, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 {
		t.Errorf("mean = %g", w.Mean())
	}
	if !math.IsNaN(w.Variance()) {
		t.Errorf("variance of single obs = %g, want NaN", w.Variance())
	}
	if w.Min() != 3.5 || w.Max() != 3.5 {
		t.Errorf("min/max = %g/%g", w.Min(), w.Max())
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset: the naive sum-of-squares algorithm fails here.
	var w Welford
	offset := 1e9
	for _, x := range []float64{4, 7, 13, 16} {
		w.Add(offset + x)
	}
	if got := w.Variance(); !almostEq(got, 30, 1e-6) {
		t.Errorf("variance with large offset = %g, want 30", got)
	}
}

// Property: mean is always within [min, max], variance is non-negative.
func TestWelfordInvariantsQuick(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			w.Add(x)
			n++
		}
		if n == 0 {
			return true
		}
		if w.Mean() < w.Min()-1e-9 || w.Mean() > w.Max()+1e-9 {
			return false
		}
		if n >= 2 && w.Variance() < -1e-9 {
			return false
		}
		return w.Count() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWelfordCIShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var small, large Welford
	for i := 0; i < 30; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 3000; i++ {
		large.Add(rng.NormFloat64())
	}
	cs, cl := small.CI(0.95), large.CI(0.95)
	if !(cl < cs) {
		t.Errorf("CI did not shrink with samples: %g vs %g", cs, cl)
	}
	if cl <= 0 || cs <= 0 {
		t.Errorf("CI half-widths must be positive: %g, %g", cs, cl)
	}
}
