package sim

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

func TestScheduleValidation(t *testing.T) {
	bad := []struct {
		name   string
		times  []float64
		rates  []float64
		period float64
	}{
		{"empty", nil, nil, 0},
		{"length mismatch", []float64{0, 1}, []float64{1}, 0},
		{"nonzero start", []float64{1, 2}, []float64{1, 2}, 0},
		{"non-ascending", []float64{0, 5, 5}, []float64{1, 2, 3}, 0},
		{"negative rate", []float64{0, 5}, []float64{1, -2}, 0},
		{"period inside breakpoints", []float64{0, 10, 20}, []float64{1, 2, 3}, 15},
		{"infinite rate", []float64{0, 5}, []float64{1, math.Inf(1)}, 0},
		{"NaN rate", []float64{0, 5}, []float64{math.NaN(), 1}, 0},
		{"infinite breakpoint", []float64{0, math.Inf(1)}, []float64{1, 2}, 0},
		{"infinite period", []float64{0, 5}, []float64{1, 2}, math.Inf(1)},
	}
	for _, tc := range bad {
		if _, err := NewSchedule(tc.times, tc.rates, tc.period); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSchedulePiecewiseAndPeriodic(t *testing.T) {
	// Open-ended: the final rate holds forever past the last breakpoint.
	s, err := NewSchedule([]float64{0, 10, 20}, []float64{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ t, want float64 }{
		{0, 1}, {5, 1}, {10, 2}, {19.9, 2}, {20, 3}, {1e6, 3},
	} {
		if got := s.RateAt(tc.t); got != tc.want {
			t.Errorf("open RateAt(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
	if s.MaxRate() != 3 {
		t.Errorf("MaxRate = %g, want 3", s.MaxRate())
	}
	if MeanRate(s) != 3 {
		t.Errorf("open-ended mean = %g, want final rate 3", MeanRate(s))
	}

	// Cycling: t wraps modulo the period, and the mean is time-weighted
	// over one cycle: (10·1 + 10·2 + 10·3)/30 = 2.
	p, err := NewSchedule([]float64{0, 10, 20}, []float64{1, 2, 3}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.RateAt(35); got != 1 {
		t.Errorf("periodic RateAt(35) = %g, want 1 (wrapped to 5)", got)
	}
	if got := p.RateAt(59.9); got != 3 {
		t.Errorf("periodic RateAt(59.9) = %g, want 3", got)
	}
	if got := MeanRate(p); !almostEq(got, 2, 1e-12) {
		t.Errorf("periodic mean = %g, want 2", got)
	}
}

// TestScheduleThinningRealizesMeanRate cross-validates the schedule against
// the arrival generator the same way the sinusoid is validated: a cycling
// staircase must deliver its time-weighted mean rate of completions in a
// lightly loaded station.
func TestScheduleThinningRealizesMeanRate(t *testing.T) {
	c := oneTier(4, 4, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 99 /* ignored when a profile is set */}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	st, err := NewSchedule([]float64{0, 500, 1000}, []float64{1, 3, 2}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Horizon: 30000, Replications: 3, Seed: 21, Profiles: []Profile{st}}
	res, err := Run(c, o)
	if err != nil {
		t.Fatal(err)
	}
	span := (o.Horizon - o.Horizon*0.1) * float64(res.Replications)
	got := float64(res.Completed[0]) / span
	if relErr(got, 2) > 0.03 {
		t.Errorf("throughput %g, want 2 (schedule mean)", got)
	}
}
