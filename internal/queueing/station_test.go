package queueing

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestMeanDelayAllClasses(t *testing.T) {
	d := []float64{1, 3}
	l := []float64{2, 1}
	// (2·1 + 1·3)/3 = 5/3.
	if got := MeanDelayAllClasses(d, l); !almostEq(got, 5.0/3, 1e-12) {
		t.Errorf("weighted delay = %g", got)
	}
	if !math.IsNaN(MeanDelayAllClasses(d, []float64{0, 0})) {
		t.Error("zero traffic should be NaN")
	}
	// A class without traffic weighs nothing, even when its delay is +Inf.
	if got := MeanDelayAllClasses([]float64{2, math.Inf(1)}, []float64{1, 0}); got != 2 {
		t.Errorf("weighted delay with an idle saturated class = %g, want 2", got)
	}
}

func TestStationHelpers(t *testing.T) {
	s := &Station{Name: "x", Servers: 2, Speed: 4, Discipline: NonPreemptive,
		Demands: []Demand{{Work: 1, CV2: 1}, {Work: 2, CV2: 0.5}}}
	if err := s.Validate(2); err != nil {
		t.Fatal(err)
	}
	// Class 1: mean 2/4 = 0.5, CV² 0.5 → Erlang-2, E[S²] = 0.25·(1 + 1/2).
	m1, m2 := make([]float64, 2), make([]float64, 2)
	if err := s.Moments(m1, m2); err != nil {
		t.Fatal(err)
	}
	if !almostEq(m1[1], 0.5, 1e-12) || !almostEq(m2[1], 0.375, 1e-12) {
		t.Errorf("class 1 moments: %g, %g", m1[1], m2[1])
	}
	lam := []float64{1, 1}
	// ρ = (1·0.25 + 1·0.5)/2 = 0.375.
	if got := Utilization(s.Servers, lam, m1); !almostEq(got, 0.375, 1e-12) {
		t.Errorf("util = %g", got)
	}
	// Min speed: (1·1 + 1·2)/2 = 1.5 work-units/s.
	if got := s.MinSpeedForStability(lam); !almostEq(got, 1.5, 1e-12) {
		t.Errorf("min speed = %g", got)
	}
	if err := s.Validate(3); err == nil {
		t.Error("class mismatch accepted")
	}
}

// TestStationValidateServerBound: a server count above MaxServers is
// rejected with an error naming the bound; MaxServers itself is accepted.
func TestStationValidateServerBound(t *testing.T) {
	s := &Station{Name: "a", Servers: MaxServers, Speed: 1, Demands: []Demand{{Work: 1, CV2: 1}}}
	if err := s.Validate(1); err != nil {
		t.Errorf("%d servers: %v", s.Servers, err)
	}
	s.Servers = MaxServers + 1
	err := s.Validate(1)
	if want := fmt.Sprintf("MaxServers = %d", MaxServers); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%d servers: got %v, want an error naming %q", s.Servers, err, want)
	}
}

func TestStationValidateErrors(t *testing.T) {
	cases := []*Station{
		{Name: "a", Servers: 0, Speed: 1, Demands: []Demand{{Work: 1}}},
		{Name: "b", Servers: 1, Speed: 0, Demands: []Demand{{Work: 1}}},
		{Name: "c", Servers: 1, Speed: 1, Demands: []Demand{{Work: 0}}},
		{Name: "d", Servers: 1, Speed: 1, Demands: []Demand{{Work: 1, CV2: -1}}},
		{Name: "e", Servers: 1, Speed: 1e-320, Demands: []Demand{{Work: 1}}},             // mean overflows
		{Name: "f", Servers: 1, Speed: 1e308, Demands: []Demand{{Work: 1e-300}}},         // mean underflows
		{Name: "g", Servers: 1, Speed: 1, Demands: []Demand{{Work: 1e160, CV2: 1}}},      // E[S²] overflows
		{Name: "h", Servers: 1, Speed: 1, Demands: []Demand{{Work: 1, CV2: math.NaN()}}}, // NaN CV²
	}
	for _, s := range cases {
		if err := s.Validate(1); err == nil {
			t.Errorf("station %q: invalid config accepted", s.Name)
		}
	}
}

// TestMomentsFollowDemandChanges: Moments builds each class's recipe on its
// first call, and a later call still reads the demands as they stand: a
// class whose CV² changed in place, or a station whose demands were
// replaced, gets the moments of its new family, equal to DistForCV2's.
func TestMomentsFollowDemandChanges(t *testing.T) {
	s := &Station{Name: "x", Servers: 1, Speed: 2, Demands: []Demand{{Work: 1, CV2: 0.5}, {Work: 3, CV2: 4}}}
	m1, m2 := make([]float64, 3), make([]float64, 3)
	check := func(when string) {
		t.Helper()
		if err := s.Moments(m1, m2); err != nil {
			t.Fatal(err)
		}
		for k, d := range s.Demands {
			want := DistForCV2(d.Work/s.Speed, d.CV2)
			if m1[k] != want.Mean() || m2[k] != want.SecondMoment() {
				t.Errorf("%s: class %d moments %g, %g; %v has %g, %g", when, k, m1[k], m2[k], want, want.Mean(), want.SecondMoment())
			}
		}
	}
	check("first call")
	s.Demands[0].CV2, s.Demands[1].CV2 = 2.5, 0
	check("CV² changed in place")
	s.Demands = append(s.Demands, Demand{Work: 0.5, CV2: 1})
	check("a class added")
}
