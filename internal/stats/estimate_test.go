package stats

import (
	"math"
	"testing"
)

func TestEstimateHasCI(t *testing.T) {
	with := Estimate{Mean: 2, HalfW: 0.5, Level: 0.95, Samples: 100, Batches: 5}
	if !with.HasCI() {
		t.Errorf("HasCI() = false for finite half-width %v", with.HalfW)
	}
	without := Estimate{Mean: 2, HalfW: math.NaN(), Samples: 1, Batches: 1}
	if without.HasCI() {
		t.Error("HasCI() = true for NaN half-width")
	}
}

func TestEstimateContainsWithoutCI(t *testing.T) {
	// Contains is documented as a soft check: with no interval it accepts
	// everything, which is exactly why validation must gate on HasCI.
	e := Estimate{Mean: 2, HalfW: math.NaN()}
	if !e.Contains(1e9) || !e.Contains(-1e9) {
		t.Error("Contains should vacuously accept any value when HalfW is NaN")
	}

	e = Estimate{Mean: 2, HalfW: 0.5}
	if !e.Contains(2.4) {
		t.Error("Contains(2.4) = false for 2 ± 0.5")
	}
	if e.Contains(2.6) {
		t.Error("Contains(2.6) = true for 2 ± 0.5")
	}
}

func TestRelErrNearZeroReference(t *testing.T) {
	e := Estimate{Mean: 0.25}
	// A reference of ±1e-300 is numerically zero; RelErr must fall back to
	// the absolute error instead of dividing by it (which would yield ~1e299).
	for _, v := range []float64{0, 1e-300, -1e-300} {
		if got := e.RelErr(v); got != 0.25 {
			t.Errorf("RelErr(%g) = %g, want absolute error 0.25", v, got)
		}
	}
	if got := e.RelErr(0.5); got != 0.5 {
		t.Errorf("RelErr(0.5) = %g, want 0.5", got)
	}
}

func TestAlmostZero(t *testing.T) {
	for _, x := range []float64{0, 1e-300, -1e-300, 1e-13, -1e-13} {
		if !almostZero(x) {
			t.Errorf("almostZero(%g) = false", x)
		}
	}
	for _, x := range []float64{1e-9, -1e-9, 1, math.Inf(1), math.NaN()} {
		if almostZero(x) {
			t.Errorf("almostZero(%g) = true", x)
		}
	}
}
