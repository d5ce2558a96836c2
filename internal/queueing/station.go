package queueing

import (
	"fmt"
	"math"
)

// Demand describes the work a request of one class brings to a station:
// Work is the mean amount of work in abstract work units; CV2 is the squared
// coefficient of variation of that work. A station running at speed s
// (work units per time) turns the demand into a service time with mean
// Work/s and the same CV².
type Demand struct {
	Work float64
	CV2  float64
}

// Station is a multi-server queueing station with a controllable speed: the
// model of one tier of the cluster. All servers in the station run at the
// same speed; Speed is the DVFS-controlled rate in work units per time.
type Station struct {
	Name       string
	Servers    int
	Speed      float64
	Discipline Discipline
	Demands    []Demand // indexed by class; len = number of classes

	// recipes holds each class's moment-matching recipe, built by the
	// station's first Moments and rebuilt for a class whose CV² changed.
	recipes []recipe
}

// MaxServers bounds a station's server count. The Erlang formulas cost time
// linear in the count, so a hostile config with 10⁸ servers would take most
// of a second per evaluation; real tiers stay far below the bound.
const MaxServers = 10000

// Validate checks the station's structural parameters.
func (s *Station) Validate(numClasses int) error {
	if s.Servers < 1 || s.Servers > MaxServers {
		return fmt.Errorf("queueing: station %q has %d servers, want 1 to MaxServers = %d", s.Name, s.Servers, MaxServers)
	}
	if !(s.Speed > 0) {
		return fmt.Errorf("queueing: station %q has non-positive speed %g", s.Name, s.Speed)
	}
	if len(s.Demands) != numClasses {
		return fmt.Errorf("queueing: station %q has %d demands for %d classes",
			s.Name, len(s.Demands), numClasses)
	}
	for k, d := range s.Demands {
		if !(d.Work > 0) {
			return fmt.Errorf("queueing: station %q class %d has non-positive work %g", s.Name, k, d.Work)
		}
		// The service time's first two moments must be representable: a
		// tiny speed, a huge work or a huge CV² overflows them, the reverse
		// underflows them to 0.
		mean := d.Work / s.Speed
		if m2 := mean * mean * (1 + d.CV2); !(m2 > 0 && m2 <= math.MaxFloat64) {
			return fmt.Errorf("queueing: station %q class %d service time (work %g, CV² %g at speed %g) has a zero or overflowing moment",
				s.Name, k, d.Work, d.CV2, s.Speed)
		}
		if d.CV2 < 0 {
			return fmt.Errorf("queueing: station %q class %d has negative CV² %g", s.Name, k, d.CV2)
		}
	}
	return nil
}

// Moments fills m1 and m2 with each class's service-time moments E[S_k]
// and E[S_k²] at the station's current speed: mean Work/Speed with the
// demand's CV², read from the distribution DistForCV2 would build. Where
// the distributions would panic because a class's mean is not positive and
// finite (a speed that is not, or one so small that the mean overflows), it
// returns an error instead. Each class's recipe (its family, Erlang stages
// or hyperexponential phase probability) depends on its CV² alone, so the
// station builds it on its first call and only reads it afterwards; that
// first call allocates, no later one does.
func (s *Station) Moments(m1, m2 []float64) error {
	if len(s.recipes) != len(s.Demands) {
		s.recipes = make([]recipe, len(s.Demands))
		for k, d := range s.Demands {
			s.recipes[k] = recipeFor(d.CV2)
		}
	}
	for k, d := range s.Demands {
		mean := d.Work / s.Speed
		if !(mean > 0) || math.IsInf(mean, 1) {
			return fmt.Errorf("queueing: station %q class %d service time %g (work %g at speed %g) is not positive and finite",
				s.Name, k, mean, d.Work, s.Speed)
		}
		r := &s.recipes[k]
		if math.Float64bits(r.cv2) != math.Float64bits(d.CV2) {
			*r = recipeFor(d.CV2)
		}
		m1[k], m2[k] = r.moments(mean)
	}
	return nil
}

// DistForCV2 constructs a service distribution with the given mean and
// squared coefficient of variation using the standard moment-matching
// recipes of queueing analysis: Deterministic (CV²=0), Erlang (CV²<1),
// Exponential (CV²=1) or balanced hyperexponential (CV²>1).
func DistForCV2(mean, cv2 float64) ServiceDist {
	return recipeFor(cv2).dist(mean)
}

// Service-time families a recipe picks; badHyper is a CV² above 1 that no
// hyperexponential represents (NaN, +Inf).
const (
	deterministic = iota
	erlang
	exponential
	hyperExp
	badHyper
)

// recipe is the one moment-matching recipe behind DistForCV2 and
// Station.Moments, fixed by a CV² alone: the family, with Erlang-k's stages
// k = round(1/CV²) and the balanced hyperexponential's phase probability.
type recipe struct {
	cv2    float64
	family int
	k      int     // Erlang stages
	p      float64 // hyperexponential phase-1 probability
}

// recipeFor returns the recipe for CV² cv2.
func recipeFor(cv2 float64) recipe {
	r := recipe{cv2: cv2}
	switch {
	case cv2 == 0:
		r.family = deterministic
	case cv2 < 1:
		// Erlang-k with k = round(1/cv²); exact when 1/cv² is integral.
		r.family, r.k = erlang, int(math.Round(1/cv2))
		if r.k < 1 {
			r.k = 1
		}
	//lint:waive floateq reason="deliberate exact compare: CV^2 exactly 1 selects the exponential family" until=2027-08-01
	case cv2 == 1:
		r.family = exponential
	case validHyperCV2(cv2):
		r.family, r.p = hyperExp, hyperP(cv2)
	default:
		r.family = badHyper
	}
	return r
}

// dist returns the recipe's distribution with the given mean; the
// constructors panic on a mean that is not positive and finite, and on a
// CV² no hyperexponential represents.
func (r recipe) dist(mean float64) ServiceDist {
	switch r.family {
	case deterministic:
		return NewDeterministic(mean)
	case erlang:
		return NewErlang(mean, r.k)
	case exponential:
		return NewExponential(mean)
	default:
		return NewHyperExpCV2(mean, r.cv2)
	}
}

// moments returns the first two moments of the recipe's distribution with
// the given mean, read from the concrete type (so HyperExp's mean is
// P·M1+(1−P)·M2, not the mean passed in). mean must be positive and finite;
// it panics, as dist does, on a CV² no hyperexponential represents.
func (r recipe) moments(mean float64) (m1, m2 float64) {
	switch r.family {
	case deterministic:
		x := Deterministic{M: mean}
		return x.Mean(), x.SecondMoment()
	case erlang:
		x := Erlang{M: mean, K: r.k}
		return x.Mean(), x.SecondMoment()
	case exponential:
		x := Exponential{M: mean}
		return x.Mean(), x.SecondMoment()
	case hyperExp:
		x := balancedHyperExp(mean, r.p)
		return x.Mean(), x.SecondMoment()
	default:
		x := NewHyperExpCV2(mean, r.cv2)
		return x.Mean(), x.SecondMoment()
	}
}

// MinSpeedForStability returns the smallest speed at which the station is
// stable (utilization < 1) for the given arrival rates; callers should add
// headroom above it.
func (s *Station) MinSpeedForStability(lambda []float64) float64 {
	var work float64
	for k, d := range s.Demands {
		work += lambda[k] * d.Work
	}
	return work / float64(s.Servers)
}

// MeanDelayAllClasses returns the arrival-rate-weighted average of the
// per-class end-to-end delays — the "all class" objective of the paper's
// aggregate formulations.
func MeanDelayAllClasses(delays, lambda []float64) float64 {
	var num, den float64
	for k := range delays {
		if lambda[k] == 0 {
			continue // a class without traffic weighs nothing, even at +Inf
		}
		num += lambda[k] * delays[k]
		den += lambda[k]
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
