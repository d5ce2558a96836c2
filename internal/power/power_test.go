package power

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestPowerLawBasics(t *testing.T) {
	m, err := NewPowerLaw(100, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.IdlePower(2) != 100 {
		t.Errorf("idle = %g", m.IdlePower(2))
	}
	if got := m.BusyPower(2); !almostEq(got, 100+10*8, 1e-12) {
		t.Errorf("busy(2) = %g, want 180", got)
	}
}

func TestPowerLawValidation(t *testing.T) {
	if _, err := NewPowerLaw(-1, 1, 2); err == nil {
		t.Error("negative idle accepted")
	}
	if _, err := NewPowerLaw(1, -1, 2); err == nil {
		t.Error("negative kappa accepted")
	}
	if _, err := NewPowerLaw(1, 1, 0.5); err == nil {
		t.Error("gamma < 1 accepted")
	}
}

func TestPowerLawConvexInSpeed(t *testing.T) {
	m, _ := NewPowerLaw(50, 5, 2.5)
	f := func(a, b float64) bool {
		s1 := 0.1 + math.Mod(math.Abs(a), 10)
		s2 := 0.1 + math.Mod(math.Abs(b), 10)
		if math.IsNaN(s1) || math.IsNaN(s2) {
			return true
		}
		mid := (s1 + s2) / 2
		return m.BusyPower(mid) <= (m.BusyPower(s1)+m.BusyPower(s2))/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLinearModel(t *testing.T) {
	m := Linear{Idle: 10, Slope: 3}
	if m.IdlePower(5) != 10 || m.BusyPower(5) != 25 {
		t.Errorf("linear: %g %g", m.IdlePower(5), m.BusyPower(5))
	}
}

func TestTableInterpolation(t *testing.T) {
	tb, err := NewTable(20, []float64{1, 2, 4}, []float64{50, 80, 200})
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.BusyPower(1); got != 50 {
		t.Errorf("at first point = %g", got)
	}
	if got := tb.BusyPower(4); got != 200 {
		t.Errorf("at last point = %g", got)
	}
	if got := tb.BusyPower(1.5); !almostEq(got, 65, 1e-12) {
		t.Errorf("interp(1.5) = %g, want 65", got)
	}
	if got := tb.BusyPower(3); !almostEq(got, 140, 1e-12) {
		t.Errorf("interp(3) = %g, want 140", got)
	}
	// Clamping.
	if got := tb.BusyPower(0.5); got != 50 {
		t.Errorf("below range = %g", got)
	}
	if got := tb.BusyPower(9); got != 200 {
		t.Errorf("above range = %g", got)
	}
	if tb.IdlePower(2) != 20 {
		t.Error("idle power")
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(1, nil, nil); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := NewTable(1, []float64{1, 2}, []float64{5}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewTable(1, []float64{2, 1}, []float64{5, 6}); err == nil {
		t.Error("non-increasing speeds accepted")
	}
	if _, err := NewTable(-1, []float64{1}, []float64{5}); err == nil {
		t.Error("negative idle accepted")
	}
	if _, err := NewTable(1, []float64{0}, []float64{5}); err == nil {
		t.Error("zero speed accepted")
	}
	if _, err := NewTable(10, []float64{1, 2}, []float64{12, 9}); err == nil {
		t.Error("busy power below idle accepted")
	}
}

// stationPower is a station's total average power, its breakdown's sum.
func stationPower(m Model, s float64, c int, rho float64) float64 {
	return StationBreakdown(m, s, c, rho).Total()
}

func TestStationPower(t *testing.T) {
	m, _ := NewPowerLaw(100, 10, 2) // busy(2) = 140
	// 4 servers at ρ=0.5: 4·(0.5·140 + 0.5·100) = 480.
	if got := stationPower(m, 2, 4, 0.5); !almostEq(got, 480, 1e-12) {
		t.Errorf("station power = %g, want 480", got)
	}
	// Zero load: idle floor only.
	if got := stationPower(m, 2, 4, 0); !almostEq(got, 400, 1e-12) {
		t.Errorf("idle floor = %g, want 400", got)
	}
	// Clamping: overload and negative.
	if got := stationPower(m, 2, 4, 1.7); !almostEq(got, 4*140, 1e-12) {
		t.Errorf("overloaded = %g", got)
	}
	if got := stationPower(m, 2, 4, math.Inf(1)); !almostEq(got, 4*140, 1e-12) {
		t.Errorf("infinite rho = %g", got)
	}
	if got := stationPower(m, 2, 4, -0.3); !almostEq(got, 400, 1e-12) {
		t.Errorf("negative rho = %g", got)
	}
}

func TestStationPowerMonotoneInLoadAndSpeed(t *testing.T) {
	m, _ := NewPowerLaw(80, 4, 3)
	f := func(a, b float64) bool {
		r1 := math.Mod(math.Abs(a), 1)
		r2 := math.Mod(math.Abs(b), 1)
		if math.IsNaN(r1) || math.IsNaN(r2) {
			return true
		}
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		if stationPower(m, 2, 3, r1) > stationPower(m, 2, 3, r2)+1e-9 {
			return false
		}
		// More speed at same load costs more.
		return stationPower(m, 1.5, 3, r2) <= stationPower(m, 2.5, 3, r2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRequestEnergy(t *testing.T) {
	m, _ := NewPowerLaw(100, 10, 2)
	// Busy-idle gap at s=2 is 40 W; a 0.5 s service burns 20 J.
	if got := RequestEnergy(m, 2, 0.5); !almostEq(got, 20, 1e-12) {
		t.Errorf("request energy = %g, want 20", got)
	}
}

// TestEnergyPerUnitWorkIncreasesWithSpeed checks the energy/performance
// tension the optimizations trade against delay: one unit of work takes 1/s
// seconds at speed s, and its dynamic energy κ·s^{γ−1} grows with s.
func TestEnergyPerUnitWorkIncreasesWithSpeed(t *testing.T) {
	m, _ := NewPowerLaw(100, 10, 3)
	perWork := func(s float64) float64 { return RequestEnergy(m, s, 1/s) }
	if got := perWork(1); !almostEq(got, 10, 1e-12) {
		t.Errorf("e/work at 1 = %g", got)
	}
	if got := perWork(2); !almostEq(got, 40, 1e-12) {
		t.Errorf("e/work at 2 = %g", got)
	}
	prev := 0.0
	for s := 0.5; s < 8; s += 0.5 {
		e := perWork(s)
		if e <= prev {
			t.Fatalf("energy per work not increasing at s=%g", s)
		}
		prev = e
	}
}

func TestBreakdown(t *testing.T) {
	m, _ := NewPowerLaw(100, 10, 2)
	b := StationBreakdown(m, 2, 4, 0.5)
	if !almostEq(b.Static, 400, 1e-12) {
		t.Errorf("static = %g", b.Static)
	}
	if !almostEq(b.Dynamic, 4*0.5*40, 1e-12) {
		t.Errorf("dynamic = %g", b.Dynamic)
	}
	if !almostEq(b.Total(), 480, 1e-12) {
		t.Errorf("breakdown total %g, want 480", b.Total())
	}
	if len(b.String()) == 0 {
		t.Error("empty string")
	}
	// Clamped breakdown.
	bc := StationBreakdown(m, 2, 4, 2)
	if !almostEq(bc.Dynamic, 4*40, 1e-12) {
		t.Errorf("clamped dynamic = %g", bc.Dynamic)
	}
	bn := StationBreakdown(m, 2, 4, -1)
	if bn.Dynamic != 0 {
		t.Errorf("negative-rho dynamic = %g", bn.Dynamic)
	}
}

func TestModelStrings(t *testing.T) {
	m, _ := NewPowerLaw(1, 2, 3)
	tb, _ := NewTable(1, []float64{1}, []float64{2})
	for _, s := range []string{m.String(), Linear{1, 2}.String(), tb.String()} {
		if len(s) == 0 {
			t.Error("empty model string")
		}
	}
}

// TestDerivativesMatchDifferences: every model's Derivatives match central
// differences of its IdlePower and BusyPower, 1e-6 of the speed wide, at
// speeds off a table's listed ones; a table's slope is its segment's, and
// 0 where it clamps to an end point.
func TestDerivativesMatchDifferences(t *testing.T) {
	pl, _ := NewPowerLaw(100, 10, 2.6)
	tb, _ := NewTable(30, []float64{1, 2.5, 4}, []float64{40, 46, 69})
	for _, m := range []Model{pl, Linear{Idle: 50, Slope: 20}, tb} {
		for _, s := range []float64{0.5, 1.7, 3.2, 6} {
			h := 1e-6 * s
			i1, i2, b1, b2 := m.Derivatives(s)
			for _, q := range []struct {
				name   string
				f      func(float64) float64
				d1, d2 float64
			}{{"idle", m.IdlePower, i1, i2}, {"busy", m.BusyPower, b1, b2}} {
				lo, mid, hi := q.f(s-h), q.f(s), q.f(s+h)
				fd1, fd2 := (hi-lo)/(2*h), (hi-2*mid+lo)/(h*h)
				if !(math.Abs(q.d1-fd1) <= 1e-6*math.Abs(fd1)+1e-8*mid/s) {
					t.Errorf("%v at %g: %s ∂/∂s %g, central difference %g", m, s, q.name, q.d1, fd1)
				}
				if !(math.Abs(q.d2-fd2) <= 1e-3*math.Abs(fd2)+1e-3*mid/(s*s)) {
					t.Errorf("%v at %g: %s ∂²/∂s² %g, central difference %g", m, s, q.name, q.d2, fd2)
				}
			}
		}
	}
	if _, _, b1, _ := tb.Derivatives(3); !almostEq(b1, 23/1.5, 1e-12) {
		t.Errorf("table slope at 3 is %g, want its segment's %g", b1, 23/1.5)
	}
}
