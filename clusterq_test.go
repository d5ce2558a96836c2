package clusterq

import (
	"testing"
)

// TestFacadeEndToEnd exercises the full public surface in one flow:
// scenario → analytic evaluation → optimization → simulation → SLA check.
func TestFacadeEndToEnd(t *testing.T) {
	c := Enterprise3Tier(1)
	m, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Stable() {
		t.Fatal("scenario unstable")
	}

	sol, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: m.WeightedDelay * 1.5, Starts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Metrics.TotalPower > m.TotalPower*1.01 {
		t.Errorf("relaxing the delay did not save power: %g vs %g",
			sol.Metrics.TotalPower, m.TotalPower)
	}

	res, err := Simulate(sol.Cluster, SimOptions{Horizon: 4000, Replications: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := range c.Classes {
		if res.Delay[k].RelErr(sol.Metrics.Delay[k]) > 0.3 {
			t.Errorf("class %d sim %g far from model %g", k, res.Delay[k].Mean, sol.Metrics.Delay[k])
		}
	}

	reports, err := CheckSLAs(sol.Cluster, sol.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Errorf("%d reports", len(reports))
	}
}

func TestFacadeConstructors(t *testing.T) {
	pm, err := NewPowerLaw(100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := &Cluster{
		Tiers: []*Tier{{
			Name: "only", Servers: 1, Speed: 4, Discipline: NonPreemptive,
			Power: pm, Demands: []Demand{{Work: 1, CV2: 1}},
		}},
		Classes: []Class{{Name: "a", Lambda: 1}},
	}
	m, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delay[0] <= 0 {
		t.Error("degenerate delay")
	}
	if TotalCost(c) != 0 {
		t.Error("costless tier should cost 0")
	}
	if q, err := DelayQuantile(c, m, 0, 0.9); err != nil || q <= m.Delay[0] {
		t.Errorf("p90 %g should exceed the mean %g (%v)", q, m.Delay[0], err)
	}
}

func TestFacadeParseConfig(t *testing.T) {
	js := `{"tiers":[{"name":"t","servers":1,"speed":4,"discipline":"np",
	         "power":{"type":"powerlaw","idle":50,"kappa":1,"gamma":3},
	         "demands":[{"work":1,"cv2":1}]}],
	        "classes":[{"name":"c","lambda":1}]}`
	c, err := ParseConfig([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tiers) != 1 {
		t.Error("parse shape")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Dual decomposition agrees with the general solver.
	c := Enterprise3Tier(1)
	m, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	bound := m.WeightedDelay * 1.4
	dual, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		t.Fatal(err)
	}
	if dual.Metrics.WeightedDelay > bound*1.002 {
		t.Errorf("dual bound violated: %g > %g", dual.Metrics.WeightedDelay, bound)
	}

	// Optimal splitting.
	x, d, err := OptimalSplit(3, []float64{4, 2})
	if err != nil || d <= 0 || len(x) != 2 {
		t.Fatalf("OptimalSplit: %v %g %v", x, d, err)
	}

	// Fork-join approximation anchors to M/M/1 at k=1.
	r1, err := ForkJoinResponse(1, 0.5, 1)
	if err != nil || r1 != 2 {
		t.Errorf("ForkJoinResponse(1) = %g, %v", r1, err)
	}
	est, err := SimulateForkJoin(2, 0.5, 1, 3000, 2, 1)
	if err != nil || est.Mean <= 0 {
		t.Errorf("SimulateForkJoin: %v, %v", est, err)
	}

	// Tail optimization.
	tail, err := MinimizeEnergyTail(c, TailOptions{
		Bounds: []TailBound{{}, {}, {Delay: m.Delay[2] * 4, Percentile: 0.9}},
		Starts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if q, _ := DelayQuantile(tail.Cluster, tail.Metrics, 2, 0.9); q > m.Delay[2]*4*1.01 {
		t.Errorf("tail bound violated: %g", q)
	}

	// Routing chain through the facade.
	rc := c.Clone()
	rc.Routing = []*ClassRouting{
		{Entry: []float64{1, 0, 0}, Next: [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}}},
		{Entry: []float64{1, 0, 0}, Next: [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}}},
		{Entry: []float64{1, 0, 0}, Next: [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0.2, 0}}},
	}
	mr, err := Evaluate(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !(mr.Delay[2] > m.Delay[2]) {
		t.Errorf("retrying bronze should be slower: %g vs %g", mr.Delay[2], m.Delay[2])
	}
}
