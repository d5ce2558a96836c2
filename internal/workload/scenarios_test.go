package workload

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
)

func TestEnterprise3TierValidAndStable(t *testing.T) {
	c := Enterprise3Tier(1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := cluster.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Stable() {
		t.Fatal("default scenario unstable")
	}
	// Priority ordering built in.
	if !(m.Delay[0] < m.Delay[1] && m.Delay[1] < m.Delay[2]) {
		t.Errorf("delays not ordered: %v", m.Delay)
	}
	// Moderate load: bottleneck between 0.4 and 0.85.
	u := bottleneckUtilization(c)
	if u < 0.4 || u > 0.85 {
		t.Errorf("default bottleneck utilization = %g", u)
	}
	// SLAs are coherent: they hold at maximum speeds.
	_, hi := c.SpeedBounds()
	if err := c.SetSpeeds(hi); err != nil {
		t.Fatal(err)
	}
	m2, _ := cluster.Evaluate(c)
	reports, _ := cluster.CheckSLAs(c, m2)
	for _, r := range reports {
		if !r.Satisfied() {
			t.Errorf("SLA unreachable even at max speed: %+v", r)
		}
	}
}

func TestEnterprise3TierLoadFactor(t *testing.T) {
	light := Enterprise3Tier(0.5)
	heavy := Enterprise3Tier(1.4)
	ml, err := cluster.Evaluate(light)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := cluster.Evaluate(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if !(mh.WeightedDelay > ml.WeightedDelay) {
		t.Errorf("heavier load should be slower: %g vs %g", mh.WeightedDelay, ml.WeightedDelay)
	}
	// Degenerate factor defaults to 1.
	if Enterprise3Tier(0).Classes[0].Lambda != Enterprise3Tier(1).Classes[0].Lambda {
		t.Error("zero load factor should default to 1")
	}
}

func TestScalableShapes(t *testing.T) {
	for _, tc := range []struct{ j, k int }{{1, 1}, {2, 3}, {5, 4}, {8, 6}} {
		c := Scalable(tc.j, tc.k, 1)
		if len(c.Tiers) != tc.j || len(c.Classes) != tc.k {
			t.Fatalf("shape %dx%d came out %dx%d", tc.j, tc.k, len(c.Tiers), len(c.Classes))
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%dx%d: %v", tc.j, tc.k, err)
		}
		m, err := cluster.Evaluate(c)
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.j, tc.k, err)
		}
		if !m.Stable() {
			t.Errorf("%dx%d unstable at load 1", tc.j, tc.k)
		}
		// Load calibration: bottleneck utilization ≈ 0.6.
		u := bottleneckUtilization(c)
		if math.Abs(u-0.6) > 0.05 {
			t.Errorf("%dx%d bottleneck utilization = %g, want ≈0.6", tc.j, tc.k, u)
		}
	}
}

func TestScalablePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Scalable(0, 1, 1)
}

func TestScaleArrivals(t *testing.T) {
	c := Enterprise3Tier(1)
	s := ScaleArrivals(c, 2)
	for i := range c.Classes {
		if s.Classes[i].Lambda != 2*c.Classes[i].Lambda {
			t.Errorf("class %d not scaled", i)
		}
	}
	// Original untouched.
	if c.Classes[0].Lambda != 0.9 {
		t.Error("original mutated")
	}
}

func TestCapacityFraction(t *testing.T) {
	c := Enterprise3Tier(1)
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		s := CapacityFraction(c, frac)
		u := bottleneckUtilization(s)
		if math.Abs(u-frac) > 1e-9 {
			t.Errorf("frac %g: utilization %g", frac, u)
		}
	}
}

// bottleneckUtilization returns the highest per-server utilization over the
// cluster's tiers at their current speeds.
func bottleneckUtilization(c *cluster.Cluster) float64 {
	u := math.Inf(-1)
	for _, m := range c.TierModels() {
		if r := m.Station.Utilization(m.Arrivals); r > u {
			u = r
		}
	}
	return u
}
