// Package power implements the energy model of the paper: DVFS-style
// speed-dependent server power, per-station and cluster average power under
// a given utilization, and per-request / per-class end-to-end energy.
//
// The canonical model is the frequency power law
//
//	P_busy(s) = P_idle + κ·sᵞ        (γ ≈ 2–3 for CMOS dynamic power)
//
// where s is the server speed in work units per time. A server that is busy
// a fraction ρ of the time draws average power
//
//	P̄(s, ρ) = P_idle + κ·sᵞ·ρ.
package power

import (
	"fmt"
	"math"
)

// Model maps a server speed to its power draw.
//
// IdlePower and BusyPower must be deterministic, side-effect-free functions
// of s: the same speed always yields the same watts. The simulator relies on
// this — it evaluates both once per speed change and reuses the values for
// every event until the next retune, not once per event. Every model in
// this package satisfies the contract.
type Model interface {
	// IdlePower returns the power drawn by an idle server at speed s.
	// Most DVFS models make idle power speed-independent, but interfaces
	// receive s so leakage-dependent models can use it.
	IdlePower(s float64) float64
	// BusyPower returns the power drawn by a server at speed s while
	// serving a request.
	BusyPower(s float64) float64
	// Derivatives returns the first and second derivatives in s of
	// IdlePower and BusyPower at s. A model with kinks (Table) returns
	// those of the piece its BusyPower evaluates at s.
	Derivatives(s float64) (dIdle, d2Idle, dBusy, d2Busy float64)
	// String names the model for diagnostics.
	String() string
}

// PowerLaw is the standard DVFS power model P_busy = Idle + Kappa·s^Gamma
// with speed-independent idle power.
type PowerLaw struct {
	Idle  float64 // static/leakage power, watts
	Kappa float64 // dynamic power coefficient
	Gamma float64 // frequency exponent, typically in [2, 3]
}

// NewPowerLaw validates and returns the model.
func NewPowerLaw(idle, kappa, gamma float64) (PowerLaw, error) {
	if idle < 0 || kappa < 0 {
		return PowerLaw{}, fmt.Errorf("power: negative coefficients idle=%g kappa=%g", idle, kappa)
	}
	if !(gamma >= 1) {
		return PowerLaw{}, fmt.Errorf("power: exponent γ=%g must be ≥ 1 for a convex speed-power curve", gamma)
	}
	return PowerLaw{Idle: idle, Kappa: kappa, Gamma: gamma}, nil
}

// IdlePower implements Model.
func (m PowerLaw) IdlePower(float64) float64 { return m.Idle }

// BusyPower implements Model.
func (m PowerLaw) BusyPower(s float64) float64 {
	return m.Idle + m.Kappa*math.Pow(s, m.Gamma)
}

// Derivatives implements Model: κ·γ·s^(γ−1) and κ·γ·(γ−1)·s^(γ−2) for the
// busy power, 0 for the idle power.
func (m PowerLaw) Derivatives(s float64) (dIdle, d2Idle, dBusy, d2Busy float64) {
	q := m.Kappa * m.Gamma * math.Pow(s, m.Gamma-2)
	return 0, 0, q * s, q * (m.Gamma - 1)
}

func (m PowerLaw) String() string {
	return fmt.Sprintf("PowerLaw(idle=%gW, κ=%g, γ=%g)", m.Idle, m.Kappa, m.Gamma)
}

// Linear is an affine power model P_busy = Idle + Slope·s, the γ=1 limiting
// case sometimes used for I/O-bound tiers where voltage cannot scale.
type Linear struct {
	Idle  float64
	Slope float64
}

// IdlePower implements Model.
func (m Linear) IdlePower(float64) float64 { return m.Idle }

// BusyPower implements Model.
func (m Linear) BusyPower(s float64) float64 { return m.Idle + m.Slope*s }

// Derivatives implements Model: the slope, and 0 everywhere else.
func (m Linear) Derivatives(float64) (dIdle, d2Idle, dBusy, d2Busy float64) {
	return 0, 0, m.Slope, 0
}

func (m Linear) String() string {
	return fmt.Sprintf("Linear(idle=%gW, slope=%g)", m.Idle, m.Slope)
}

// Table is a discrete-DVFS model: measured (speed, busy power) points with
// linear interpolation between them and a flat idle power. Speeds must be
// strictly increasing. Queries outside the table clamp to the end points.
type Table struct {
	IdleW  float64
	Speeds []float64
	BusyW  []float64
}

// NewTable validates and returns a table model.
func NewTable(idle float64, speeds, busy []float64) (*Table, error) {
	if len(speeds) == 0 || len(speeds) != len(busy) {
		return nil, fmt.Errorf("power: table needs matching non-empty speed/power lists (%d vs %d)", len(speeds), len(busy))
	}
	for i := range speeds {
		if !(speeds[i] > 0) || busy[i] < 0 {
			return nil, fmt.Errorf("power: table point %d invalid (s=%g, p=%g)", i, speeds[i], busy[i])
		}
		if i > 0 && speeds[i] <= speeds[i-1] {
			return nil, fmt.Errorf("power: table speeds not strictly increasing at %d", i)
		}
	}
	if idle < 0 {
		return nil, fmt.Errorf("power: negative idle power %g", idle)
	}
	for i, p := range busy {
		if p < idle {
			return nil, fmt.Errorf("power: table point %d busy power %g below idle %g", i, p, idle)
		}
	}
	return &Table{IdleW: idle, Speeds: append([]float64(nil), speeds...), BusyW: append([]float64(nil), busy...)}, nil
}

// IdlePower implements Model.
func (t *Table) IdlePower(float64) float64 { return t.IdleW }

// BusyPower implements Model by interpolating the table.
func (t *Table) BusyPower(s float64) float64 {
	lo, hi := t.segment(s)
	if lo == hi {
		return t.BusyW[lo]
	}
	f := (s - t.Speeds[lo]) / (t.Speeds[hi] - t.Speeds[lo])
	return t.BusyW[lo] + f*(t.BusyW[hi]-t.BusyW[lo])
}

// Derivatives implements Model: the slope of the segment BusyPower
// interpolates on at s, 0 where it clamps to an end point, and 0 for every
// second derivative and the idle power.
func (t *Table) Derivatives(s float64) (dIdle, d2Idle, dBusy, d2Busy float64) {
	lo, hi := t.segment(s)
	if lo == hi {
		return 0, 0, 0, 0
	}
	return 0, 0, (t.BusyW[hi] - t.BusyW[lo]) / (t.Speeds[hi] - t.Speeds[lo]), 0
}

// segment returns the listed points BusyPower interpolates between at s:
// lo == hi at or outside an end of the table, where it clamps, else
// Speeds[lo] ≤ s < Speeds[hi] with hi = lo+1.
func (t *Table) segment(s float64) (lo, hi int) {
	n := len(t.Speeds)
	if s <= t.Speeds[0] {
		return 0, 0
	}
	if s >= t.Speeds[n-1] {
		return n - 1, n - 1
	}
	// Binary search for the bracketing segment.
	lo, hi = 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if t.Speeds[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}

func (t *Table) String() string {
	return fmt.Sprintf("Table(%d points, idle=%gW)", len(t.Speeds), t.IdleW)
}
