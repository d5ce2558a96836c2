package power

import (
	"fmt"
	"math"
)

// RequestEnergy returns the marginal (dynamic) energy attributable to serving
// one request with mean service time svc at speed s: the busy/idle power gap
// integrated over the service time,
//
//	e = (P_busy(s) − P_idle(s)) · svc.
//
// This is the energy the cluster would not have spent had the request not
// arrived; idle (static) energy is attributed separately because it is paid
// regardless of traffic.
func RequestEnergy(m Model, s, svc float64) float64 {
	return (m.BusyPower(s) - m.IdlePower(s)) * svc
}

// Breakdown decomposes a station's average power into its static (idle floor
// of all servers) and dynamic (traffic-induced) components.
type Breakdown struct {
	Static  float64 // c·P_idle — paid regardless of traffic
	Dynamic float64 // c·ρ·(P_busy − P_idle) — induced by served work
}

// Total returns Static + Dynamic.
func (b Breakdown) Total() float64 { return b.Static + b.Dynamic }

func (b Breakdown) String() string {
	return fmt.Sprintf("static=%.4gW dynamic=%.4gW total=%.4gW", b.Static, b.Dynamic, b.Total())
}

// StationBreakdown returns the static/dynamic power split of a station of c
// servers at speed s with per-server utilization rho. Each server is busy a
// fraction rho of the time (utilization law), so the total is
//
//	P̄ = c · [ρ·P_busy(s) + (1−ρ)·P_idle(s)].
//
// rho is clamped to [0, 1]; an unstable station is busy all the time.
func StationBreakdown(m Model, s float64, c int, rho float64) Breakdown {
	if rho < 0 {
		rho = 0
	}
	if rho > 1 || math.IsInf(rho, 1) {
		rho = 1
	}
	return Breakdown{
		Static:  float64(c) * m.IdlePower(s),
		Dynamic: float64(c) * rho * (m.BusyPower(s) - m.IdlePower(s)),
	}
}
