package sim

// The Schedule profile lives outside arrivals.go deliberately: its
// constructor formats validation errors (whose operands the compiler boxes
// onto the heap), and arrivals.go is part of the hotalloc-policed
// allocation-free file set. Construction happens once per experiment, never
// on the event loop, so the escapes are fine here and the hot-path gate
// stays exact.

import (
	"fmt"
	"math"
)

// Schedule is a piecewise-constant multi-period rate profile: rate Rates[i]
// holds on [Times[i], Times[i+1]), and the last rate holds forever. With a
// positive Period the whole schedule cycles (t is taken modulo Period), which
// is how a multi-day staircase or a repeating business-hours pattern is
// spelled. Construct with NewSchedule.
type Schedule struct {
	Times  []float64 // breakpoints, ascending, Times[0] == 0
	Rates  []float64 // Rates[i] holds from Times[i]
	Period float64   // 0 = no cycling
	max    float64
}

// NewSchedule validates and returns the profile. times and rates must have
// equal length ≥ 1, times must start at 0 and strictly ascend, rates must be
// non-negative, and a positive period must not cut a segment short (every
// breakpoint below it). Every time, rate and period must be finite.
func NewSchedule(times, rates []float64, period float64) (Schedule, error) {
	if len(times) == 0 || len(times) != len(rates) {
		return Schedule{}, fmt.Errorf("sim: schedule needs matching non-empty breakpoints and rates (%d vs %d)",
			len(times), len(rates))
	}
	if times[0] != 0 {
		return Schedule{}, fmt.Errorf("sim: schedule must start at t=0, got %g", times[0])
	}
	var max float64
	for i, r := range rates {
		if !(r >= 0) || math.IsInf(r, 1) {
			return Schedule{}, fmt.Errorf("sim: schedule rate %d is %g, must be finite and non-negative", i, r)
		}
		if r > max {
			max = r
		}
		if i > 0 && (!(times[i] > times[i-1]) || math.IsInf(times[i], 1)) {
			return Schedule{}, fmt.Errorf("sim: schedule breakpoints must be finite and strictly ascend (%g after %g)",
				times[i], times[i-1])
		}
	}
	if period != 0 && (!(period > times[len(times)-1]) || math.IsInf(period, 1)) {
		return Schedule{}, fmt.Errorf("sim: schedule period %g must exceed the last breakpoint %g",
			period, times[len(times)-1])
	}
	return Schedule{
		Times:  append([]float64(nil), times...),
		Rates:  append([]float64(nil), rates...),
		Period: period,
		max:    max,
	}, nil
}

// valid reports whether s passes NewSchedule's checks and carries its rate
// bound, which Options.validate requires of a literal: a literal skips the
// constructor, so its MaxRate reads 0 and thinning drops every arrival.
func (s Schedule) valid() bool {
	c, err := NewSchedule(s.Times, s.Rates, s.Period)
	return err == nil && s.max >= c.max
}

// RateAt implements Profile.
func (s Schedule) RateAt(t float64) float64 {
	if s.Period > 0 {
		t = math.Mod(t, s.Period)
	}
	// Segments are few (an experiment's staircase), so the linear scan from
	// the top finds the holding segment without a search structure.
	for i := len(s.Times) - 1; i >= 0; i-- {
		if t >= s.Times[i] {
			return s.Rates[i]
		}
	}
	return s.Rates[0]
}

// MaxRate implements Profile.
func (s Schedule) MaxRate() float64 { return s.max }
