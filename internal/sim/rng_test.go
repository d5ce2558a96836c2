package sim

import (
	"math"
	"testing"

	"clusterq/internal/queueing"
	"clusterq/internal/stats"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("different seeds too similar")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	var w stats.Welford
	buckets := make([]int, 10)
	const n = 200000
	for i := 0; i < n; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %g", u)
		}
		w.Add(u)
		buckets[int(u*10)]++
	}
	if math.Abs(w.Mean()-0.5) > 0.005 {
		t.Errorf("mean = %g", w.Mean())
	}
	if math.Abs(w.Variance()-1.0/12) > 0.002 {
		t.Errorf("variance = %g", w.Variance())
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > 5*math.Sqrt(n/10) {
			t.Errorf("bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestExpVariates(t *testing.T) {
	r := NewRNG(11)
	var w stats.Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Exp(2))
	}
	if math.Abs(w.Mean()-0.5) > 0.01 {
		t.Errorf("exp mean = %g, want 0.5", w.Mean())
	}
	// Exponential: variance = mean².
	if math.Abs(w.Variance()-0.25) > 0.01 {
		t.Errorf("exp variance = %g, want 0.25", w.Variance())
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	matches := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Error("split streams identical")
	}
}

func TestSamplersMatchDistMoments(t *testing.T) {
	dists := []queueing.ServiceDist{
		queueing.NewExponential(2),
		queueing.NewDeterministic(1.5),
		queueing.NewErlang(3, 4),
		queueing.NewHyperExpCV2(1, 4),
	}
	for _, d := range dists {
		s := SamplerFor(d)
		if !almostEq(s.Mean(), d.Mean(), 1e-9) {
			t.Errorf("%v: sampler mean %g != dist mean %g", d, s.Mean(), d.Mean())
		}
		r := NewRNG(99)
		var w stats.Welford
		for i := 0; i < 150000; i++ {
			x := s.Sample(r)
			if x < 0 {
				t.Fatalf("%v: negative sample %g", d, x)
			}
			w.Add(x)
		}
		if relErr(w.Mean(), d.Mean()) > 0.02 {
			t.Errorf("%v: empirical mean %g vs %g", d, w.Mean(), d.Mean())
		}
		// Second moment matches too (what P-K formulas consume).
		var w2 stats.Welford
		r2 := NewRNG(100)
		for i := 0; i < 150000; i++ {
			x := s.Sample(r2)
			w2.Add(x * x)
		}
		if relErr(w2.Mean(), d.SecondMoment()) > 0.05 {
			t.Errorf("%v: empirical E[S²] %g vs %g", d, w2.Mean(), d.SecondMoment())
		}
	}
}

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
