package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

// retryChain builds a single-station chain with retry probability p.
func retryChain(p float64) *ClassRouting {
	return &ClassRouting{Entry: []float64{1}, Next: [][]float64{{p}}}
}

func TestVisitRatesRetryLoop(t *testing.T) {
	// Geometric retries: expected visits = 1/(1−p).
	for _, p := range []float64{0, 0.3, 0.9} {
		v, err := retryChain(p).VisitRates()
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(v[0], 1/(1-p), 1e-9) {
			t.Errorf("p=%g: visits %g, want %g", p, v[0], 1/(1-p))
		}
	}
}

func TestVisitRatesTandemChain(t *testing.T) {
	// 0→1→2→exit expressed as a chain: one visit each.
	r := &ClassRouting{
		Entry: []float64{1, 0, 0},
		Next:  [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}},
	}
	v, err := r.VisitRates()
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{1, 1, 1} {
		if !almostEq(v[j], want, 1e-9) {
			t.Errorf("v[%d] = %g", j, v[j])
		}
	}
}

func TestVisitRatesBranching(t *testing.T) {
	// Enter at 0; then 50/50 to station 1 or 2; both exit.
	r := &ClassRouting{
		Entry: []float64{1, 0, 0},
		Next:  [][]float64{{0, 0.5, 0.5}, {0, 0, 0}, {0, 0, 0}},
	}
	v, err := r.VisitRates()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v[0], 1, 1e-9) || !almostEq(v[1], 0.5, 1e-9) || !almostEq(v[2], 0.5, 1e-9) {
		t.Errorf("visits = %v", v)
	}
	if got := r.ExitProbability(1); got != 1 {
		t.Errorf("exit prob = %g", got)
	}
	if got := r.ExitProbability(0); got != 0 {
		t.Errorf("exit prob at 0 = %g", got)
	}
}

func TestVisitRatesFeedbackToEarlierStation(t *testing.T) {
	// 0→1, then from 1: 30% back to 0, 70% exit.
	// v0 = 1 + 0.3·v1, v1 = v0 → v0 = v1 = 1/0.7.
	r := &ClassRouting{
		Entry: []float64{1, 0},
		Next:  [][]float64{{0, 1}, {0.3, 0}},
	}
	v, err := r.VisitRates()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / 0.7
	if !almostEq(v[0], want, 1e-9) || !almostEq(v[1], want, 1e-9) {
		t.Errorf("visits = %v, want %g each", v, want)
	}
}

func TestRoutingValidation(t *testing.T) {
	cases := map[string]*ClassRouting{
		"entry wrong size": {Entry: []float64{1}, Next: [][]float64{{0, 0}, {0, 0}}},
		"entry not dist":   {Entry: []float64{0.5, 0.2}, Next: [][]float64{{0, 0}, {0, 0}}},
		"negative entry":   {Entry: []float64{1.5, -0.5}, Next: [][]float64{{0, 0}, {0, 0}}},
		"row too big":      {Entry: []float64{1, 0}, Next: [][]float64{{0.7, 0.7}, {0, 0}}},
		"rows wrong count": {Entry: []float64{1, 0}, Next: [][]float64{{0, 0}}},
		"recurrent":        {Entry: []float64{1}, Next: [][]float64{{1}}},
	}
	for name, r := range cases {
		if err := r.Validate(2); name == "recurrent" {
			if err2 := r.Validate(1); err2 == nil {
				t.Errorf("%s: accepted", name)
			}
		} else if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	good := retryChain(0.5)
	if err := good.Validate(1); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
}

func TestRoutingFromRoute(t *testing.T) {
	r, err := RoutingFromRoute([]int{0, 2, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.VisitRates()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if !almostEq(v[j], 1, 1e-9) {
			t.Errorf("v[%d] = %g", j, v[j])
		}
	}
	// A route revisiting a station with different successors is not Markov.
	if _, err := RoutingFromRoute([]int{0, 1, 0, 2}, 3); err == nil {
		t.Error("non-Markov route accepted")
	}
	if _, err := RoutingFromRoute(nil, 3); err == nil {
		t.Error("empty route accepted")
	}
	if _, err := RoutingFromRoute([]int{5}, 3); err == nil {
		t.Error("out-of-range route accepted")
	}
}

func TestVisitRatesPropertyQuick(t *testing.T) {
	// Random substochastic 2×2 chains: visit rates exist, are ≥ entry, and
	// truncating the retry mass increases no rate.
	f := func(a, b, c, d, e float64) bool {
		u := func(x float64) float64 { return math.Mod(math.Abs(x), 1) * 0.45 }
		r := &ClassRouting{
			Entry: []float64{0.6, 0.4},
			Next:  [][]float64{{u(a), u(b)}, {u(c), u(d)}},
		}
		if math.IsNaN(u(a) + u(b) + u(c) + u(d) + u(e)) {
			return true
		}
		v, err := r.VisitRates()
		if err != nil {
			return false
		}
		if v[0] < r.Entry[0]-1e-9 || v[1] < r.Entry[1]-1e-9 {
			return false
		}
		// Scale all transitions down: visits must not increase.
		r2 := &ClassRouting{
			Entry: r.Entry,
			Next:  [][]float64{{u(a) / 2, u(b) / 2}, {u(c) / 2, u(d) / 2}},
		}
		v2, err := r2.VisitRates()
		if err != nil {
			return false
		}
		return v2[0] <= v[0]+1e-9 && v2[1] <= v[1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
