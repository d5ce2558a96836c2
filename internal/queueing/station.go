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
}

// Validate checks the station's structural parameters.
func (s *Station) Validate(numClasses int) error {
	if s.Servers < 1 {
		return fmt.Errorf("queueing: station %q has %d servers", s.Name, s.Servers)
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

// ServiceDistFor returns the service-time distribution of class k at the
// station's current speed: mean Work/Speed with the demand's CV², realized
// as Deterministic (CV²=0), Erlang (CV²<1), Exponential (CV²=1) or balanced
// hyperexponential (CV²>1).
func (s *Station) ServiceDistFor(k int) ServiceDist {
	d := s.Demands[k]
	return DistForCV2(d.Work/s.Speed, d.CV2)
}

// DistForCV2 constructs a service distribution with the given mean and
// squared coefficient of variation using the standard moment-matching
// recipes of queueing analysis.
func DistForCV2(mean, cv2 float64) ServiceDist {
	switch {
	case cv2 == 0:
		return NewDeterministic(mean)
	case cv2 < 1:
		// Erlang-k with k = round(1/cv²); exact when 1/cv² is integral.
		k := int(math.Round(1 / cv2))
		if k < 1 {
			k = 1
		}
		return NewErlang(mean, k)
	//lint:waive floateq reason="deliberate exact compare: CV^2 exactly 1 selects the exponential family" until=2027-08-01
	case cv2 == 1:
		return NewExponential(mean)
	default:
		return NewHyperExpCV2(mean, cv2)
	}
}

// ClassInputs builds the per-class queueing inputs for the station given the
// per-class arrival rates (indexed like Demands).
func (s *Station) ClassInputs(lambda []float64) []ClassInput {
	in := make([]ClassInput, len(s.Demands))
	for k := range s.Demands {
		in[k] = ClassInput{Lambda: lambda[k], Service: s.ServiceDistFor(k)}
	}
	return in
}

// Utilization returns the per-server utilization of the station under the
// given arrival rates.
func (s *Station) Utilization(lambda []float64) float64 {
	return AggregateUtilization(s.ClassInputs(lambda), s.Servers)
}

// ResponseTimes returns per-class mean waiting and response times at the
// station under the given per-class arrival rates.
func (s *Station) ResponseTimes(lambda []float64) (wait, resp []float64, err error) {
	return PriorityMMc(s.ClassInputs(lambda), s.Servers, s.Discipline)
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
