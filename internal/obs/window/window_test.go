package window

import (
	"math"
	"testing"

	"clusterq/internal/obs"
	"clusterq/internal/stats"
)

func mustSet(t *testing.T, cfg Config, classes, tiers int) *Set {
	t.Helper()
	s, err := NewSet(cfg, classes, tiers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSet(Config{}, 1, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewSet(Config{Width: 10, Buckets: -1}, 1, 1); err == nil {
		t.Error("negative buckets accepted")
	}
	if _, err := NewSet(Config{Width: 10, Quantile: 1.5}, 1, 1); err == nil {
		t.Error("quantile 1.5 accepted")
	}
	if _, err := NewSet(Config{Width: 10}, -1, 0); err == nil {
		t.Error("negative classes accepted")
	}
	s := mustSet(t, Config{Width: 10}, 2, 3)
	cfg := s.Config()
	if cfg.Buckets != 16 || cfg.Quantile != 0.99 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if s.Classes() != 2 || s.Tiers() != 3 {
		t.Errorf("dimensions: %d classes, %d tiers", s.Classes(), s.Tiers())
	}
}

// TestArrivalRate feeds a constant arrival stream and checks λ̂ tracks it,
// then checks an idle gap expires the window.
func TestArrivalRate(t *testing.T) {
	s := mustSet(t, Config{Width: 10, Buckets: 10}, 1, 0)
	// 5 arrivals per second for 20 seconds.
	for i := 0; i < 100; i++ {
		s.ObserveArrival(float64(i)*0.2, 0)
	}
	got := s.Class(19.99, 0).Rate
	if math.Abs(got-5) > 0.5 {
		t.Errorf("rate = %g, want ≈5", got)
	}
	// After a long idle gap the window must be empty.
	if got := s.Class(100, 0).Rate; got != 0 {
		t.Errorf("rate after idle gap = %g, want 0", got)
	}
}

// TestEarlyRateUsesElapsedTime: before a full window has elapsed, the rate
// divides by elapsed time, not the full width.
func TestEarlyRateUsesElapsedTime(t *testing.T) {
	s := mustSet(t, Config{Width: 100, Buckets: 10}, 1, 0)
	for i := 0; i < 10; i++ {
		s.ObserveArrival(float64(i)*0.1, 0) // 10 arrivals in the first second
	}
	got := s.Class(1.0, 0).Rate
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("early rate = %g, want 10", got)
	}
}

func TestMeanAndTailSojourn(t *testing.T) {
	s := mustSet(t, Config{Width: 50, Buckets: 10, Quantile: 0.9}, 1, 0)
	// Uniform sojourns 0.01..10.00 spread over 40 seconds.
	var vals []float64
	for i := 1; i <= 1000; i++ {
		v := float64(i) / 100
		vals = append(vals, v)
		s.ObserveSojourn(float64(i)*0.04, 0, v)
	}
	cs := s.Class(40, 0)
	if cs.Sojourns != 1000 {
		t.Fatalf("Sojourns = %d, want 1000", cs.Sojourns)
	}
	if math.Abs(cs.MeanSojourn-5.005) > 1e-9 {
		t.Errorf("mean = %g, want 5.005", cs.MeanSojourn)
	}
	exact := stats.ExactQuantile(vals, 0.9)
	if math.Abs(cs.TailSojourn-exact)/exact > 0.05 {
		t.Errorf("p90 = %g, exact %g", cs.TailSojourn, exact)
	}
}

// TestTailRotation: the tail estimator must forget samples roughly two
// windows old.
func TestTailRotation(t *testing.T) {
	s := mustSet(t, Config{Width: 10, Buckets: 10, Quantile: 0.5}, 1, 0)
	// Epoch 0: sojourns near 100.
	for i := 0; i < 50; i++ {
		s.ObserveSojourn(float64(i)*0.2, 0, 100)
	}
	// Two epochs later: sojourns near 1.
	for i := 0; i < 50; i++ {
		s.ObserveSojourn(25+float64(i)*0.2, 0, 1)
	}
	if got := s.Class(35, 0).TailSojourn; math.Abs(got-1) > 0.5 {
		t.Errorf("tail after rotation = %g, want ≈1", got)
	}
	// A cold current epoch falls back to the previous one.
	s2 := mustSet(t, Config{Width: 10, Buckets: 10, Quantile: 0.5}, 1, 0)
	for i := 0; i < 50; i++ {
		s2.ObserveSojourn(float64(i)*0.2, 0, 7)
	}
	s2.ObserveSojourn(10.5, 0, 7) // one sample in the new epoch
	if got := s2.Class(10.6, 0).TailSojourn; math.Abs(got-7) > 0.5 {
		t.Errorf("cold-epoch fallback = %g, want ≈7", got)
	}
}

func TestUtilization(t *testing.T) {
	s := mustSet(t, Config{Width: 20, Buckets: 10}, 0, 2)
	for i := 0; i < 40; i++ {
		s.ObserveUtilization(float64(i)*0.5, 0, 0.75)
		s.ObserveUtilization(float64(i)*0.5, 1, 0.25)
	}
	if got := s.Utilization(19.9, 0); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("tier0 util = %g, want 0.75", got)
	}
	if got := s.Utilization(19.9, 1); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("tier1 util = %g, want 0.25", got)
	}
	if !math.IsNaN(s.Utilization(100, 0)) {
		t.Errorf("stale window should read NaN")
	}
}

func TestBindAndPublish(t *testing.T) {
	s := mustSet(t, Config{Width: 10, Buckets: 5, Quantile: 0.999}, 1, 1)
	reg := obs.NewRegistry()
	s.Bind(reg)
	for i := 0; i < 20; i++ {
		tm := float64(i) * 0.5
		s.ObserveArrival(tm, 0)
		s.ObserveSojourn(tm, 0, 2)
		s.ObserveUtilization(tm, 0, 0.5)
	}
	s.Publish(9.9)
	if got := reg.Gauge("window_class0_arrival_rate", "").Value(); math.Abs(got-2) > 0.3 {
		t.Errorf("published rate = %g, want ≈2", got)
	}
	if got := reg.Gauge("window_class0_mean_sojourn_seconds", "").Value(); got != 2 {
		t.Errorf("published mean = %g, want 2", got)
	}
	// Quantile 0.999 renders as p99_9 in the gauge name.
	found := false
	for _, m := range reg.Snapshot() {
		if m.Name == "window_class0_p99_9_sojourn_seconds" {
			found = true
		}
	}
	if !found {
		t.Errorf("p99_9 gauge missing from %v", reg.Snapshot())
	}
	if got := reg.Gauge("window_tier0_utilization", "").Value(); got != 0.5 {
		t.Errorf("published util = %g, want 0.5", got)
	}
	if got := reg.Gauge("window_width_seconds", "").Value(); got != 10 {
		t.Errorf("width gauge = %g", got)
	}
}

// TestSetNilSafe calls every exported method on a nil Set.
func TestSetNilSafe(t *testing.T) {
	var s *Set
	s.ObserveArrival(0, 0)
	s.ObserveSojourn(0, 0, 1)
	s.ObserveUtilization(0, 0, 1)
	s.Bind(obs.NewRegistry())
	s.Publish(0)
	if s.Classes() != 0 || s.Tiers() != 0 {
		t.Error("nil Set has dimensions")
	}
	cs := s.Class(0, 0)
	if !math.IsNaN(cs.Rate) || !math.IsNaN(cs.MeanSojourn) || !math.IsNaN(cs.TailSojourn) {
		t.Error("nil Class sensor not NaN")
	}
	if !math.IsNaN(s.Utilization(0, 0)) {
		t.Error("nil Utilization not NaN")
	}
	if (s.Config() != Config{}) {
		t.Error("nil Config not zero")
	}
}

// TestOutOfRangeIgnored: observations for unknown classes/tiers are dropped.
func TestOutOfRangeIgnored(t *testing.T) {
	s := mustSet(t, Config{Width: 10}, 1, 1)
	s.ObserveArrival(1, 5)
	s.ObserveSojourn(1, -1, 2)
	s.ObserveUtilization(1, 9, 0.5)
	if got := s.Class(1, 0).Rate; got != 0 {
		t.Errorf("out-of-range arrival leaked: %g", got)
	}
	cs := s.Class(1, 7)
	if !math.IsNaN(cs.Rate) {
		t.Error("out-of-range read not NaN")
	}
}
