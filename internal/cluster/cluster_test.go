package cluster

import (
	"math"
	"strings"
	"testing"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// testCluster builds a 3-tier, 2-class cluster with unit work everywhere.
func testCluster() *Cluster {
	pm, _ := power.NewPowerLaw(100, 10, 3)
	mkTier := func(name string, servers int, speed float64) *Tier {
		return &Tier{
			Name: name, Servers: servers, Speed: speed,
			MinSpeed: 0.5, MaxSpeed: 10,
			Discipline: queueing.NonPreemptive, Power: pm,
			CostPerServer: 2,
			Demands: []queueing.Demand{
				{Work: 1, CV2: 1},
				{Work: 1, CV2: 1},
			},
		}
	}
	return &Cluster{
		Tiers: []*Tier{mkTier("web", 1, 4), mkTier("app", 1, 4), mkTier("db", 1, 4)},
		Classes: []Class{
			{Name: "gold", Lambda: 0.8, SLA: SLA{MaxMeanDelay: 2, PricePerRequest: 3}},
			{Name: "bronze", Lambda: 0.8, SLA: SLA{MaxMeanDelay: 5, PricePerRequest: 1}},
		},
	}
}

func TestClusterValidate(t *testing.T) {
	c := testCluster()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCluster()
	bad.Tiers = nil
	if err := bad.Validate(); err == nil {
		t.Error("no tiers accepted")
	}
	bad2 := testCluster()
	bad2.Classes = nil
	if err := bad2.Validate(); err == nil {
		t.Error("no classes accepted")
	}
	bad3 := testCluster()
	bad3.Classes[0].Lambda = -1
	if err := bad3.Validate(); err == nil {
		t.Error("negative lambda accepted")
	}
	bad4 := testCluster()
	bad4.Tiers[0].Power = nil
	if err := bad4.Validate(); err == nil {
		t.Error("missing power model accepted")
	}
	bad5 := testCluster()
	bad5.Routes = [][]int{{0}}
	if err := bad5.Validate(); err == nil {
		t.Error("route/class count mismatch accepted")
	}
	bad6 := testCluster()
	bad6.Tiers[0].Speed = 20 // above MaxSpeed
	if err := bad6.Validate(); err == nil {
		t.Error("speed outside DVFS range accepted")
	}
}

func TestSLAValidation(t *testing.T) {
	good := SLA{MaxMeanDelay: 1, PercentileDelay: 2, Percentile: 0.95}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	if !good.HasMeanBound() || !good.HasPercentileBound() {
		t.Error("bounds not detected")
	}
	if err := (SLA{Percentile: 0.95}).Validate(); err == nil {
		t.Error("percentile without delay accepted")
	}
	if err := (SLA{PercentileDelay: 1}).Validate(); err == nil {
		t.Error("delay without percentile accepted")
	}
	if err := (SLA{MaxMeanDelay: -1}).Validate(); err == nil {
		t.Error("negative bound accepted")
	}
	if err := (SLA{Percentile: 1.5, PercentileDelay: 1}).Validate(); err == nil {
		t.Error("percentile > 1 accepted")
	}
	none := SLA{}
	if none.HasMeanBound() || none.HasPercentileBound() {
		t.Error("empty SLA claims bounds")
	}
}

// TestSLAValidateRejectsNonFinite: a NaN or infinite bound must fail
// validation. A NaN mean bound used to pass and read as "no bound"; a +Inf
// one passed and let the cost planner size a fleet against nothing.
func TestSLAValidateRejectsNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, sla := range []SLA{
		{MaxMeanDelay: nan},
		{MaxMeanDelay: inf},
		{MaxMeanDelay: -inf},
		{PercentileDelay: nan, Percentile: 0.95},
		{PercentileDelay: inf, Percentile: 0.95},
		{PercentileDelay: -inf, Percentile: 0.95},
		{PercentileDelay: 2, Percentile: nan},
	} {
		if err := sla.Validate(); err == nil {
			t.Errorf("%+v: accepted", sla)
		}
		c := testCluster()
		c.Classes[1].SLA = sla
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "class 1 ") {
			t.Errorf("%+v: cluster validation gave %v, want an error naming class 1", sla, err)
		}
	}
}

func TestEvaluateDelaysMatchNetwork(t *testing.T) {
	c := testCluster()
	m, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := c.Network().EndToEndDelays(c.Lambdas())
	if err != nil {
		t.Fatal(err)
	}
	for k := range c.Classes {
		if !almostEq(m.Delay[k], bd.EndToEnd[k], 1e-12) {
			t.Errorf("class %d delay %g != network %g", k, m.Delay[k], bd.EndToEnd[k])
		}
	}
	if !(m.Delay[0] < m.Delay[1]) {
		t.Error("priority ordering violated")
	}
	if !m.Stable() {
		t.Error("cluster should be stable")
	}
}

func TestEvaluatePowerAccounting(t *testing.T) {
	c := testCluster()
	m, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	// Static floor: 3 tiers × 1 server × 100 W.
	if !almostEq(m.StaticPower, 300, 1e-9) {
		t.Errorf("static power = %g", m.StaticPower)
	}
	// Dynamic: each tier ρ = 1.6·(1/4) = 0.4; gap = κ·s³ = 10·64 = 640;
	// per tier 0.4·640 = 256; total 768.
	if !almostEq(m.DynamicPower, 768, 1e-9) {
		t.Errorf("dynamic power = %g", m.DynamicPower)
	}
	if !almostEq(m.TotalPower, 1068, 1e-9) {
		t.Errorf("total power = %g", m.TotalPower)
	}
	var tierSum float64
	for _, tm := range m.Tiers {
		tierSum += tm.Power.Total()
		if !almostEq(tm.Utilization, 0.4, 1e-12) {
			t.Errorf("tier %s util = %g", tm.Name, tm.Utilization)
		}
	}
	if !almostEq(tierSum, m.TotalPower, 1e-9) {
		t.Errorf("tier power sum %g != total %g", tierSum, m.TotalPower)
	}
	// Energy per request: 3 tiers × gap·(1/4) = 3·160 = 480 J.
	for k := range c.Classes {
		if !almostEq(m.EnergyPerRequest[k], 480, 1e-9) {
			t.Errorf("class %d energy = %g", k, m.EnergyPerRequest[k])
		}
	}
	if !almostEq(m.EnergyPerJob, 1068/1.6, 1e-9) {
		t.Errorf("energy per job = %g", m.EnergyPerJob)
	}
}

func TestEvaluateZeroTraffic(t *testing.T) {
	c := testCluster()
	c.Classes[0].Lambda = 0
	c.Classes[1].Lambda = 0
	m, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.DynamicPower != 0 {
		t.Errorf("dynamic power with no traffic = %g", m.DynamicPower)
	}
	if !math.IsNaN(m.EnergyPerJob) {
		t.Errorf("energy per job with no traffic = %g", m.EnergyPerJob)
	}
	if !math.IsNaN(m.WeightedDelay) {
		t.Errorf("weighted delay with no traffic = %g", m.WeightedDelay)
	}
}

func TestEvaluateFasterSpeedsLowerDelayRaisePower(t *testing.T) {
	slow := testCluster()
	fast := testCluster()
	if err := fast.SetSpeeds([]float64{6, 6, 6}); err != nil {
		t.Fatal(err)
	}
	ms, _ := Evaluate(slow)
	mf, _ := Evaluate(fast)
	if !(mf.WeightedDelay < ms.WeightedDelay) {
		t.Errorf("faster cluster should have lower delay: %g vs %g", mf.WeightedDelay, ms.WeightedDelay)
	}
	if !(mf.TotalPower > ms.TotalPower) {
		t.Errorf("faster cluster should draw more power: %g vs %g", mf.TotalPower, ms.TotalPower)
	}
}

func TestDelayQuantile(t *testing.T) {
	c := testCluster()
	m, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	q50, err := DelayQuantile(c, m, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	q95, err := DelayQuantile(c, m, 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !(0 < q50 && q50 < q95) {
		t.Errorf("quantiles not ordered: %g %g", q50, q95)
	}
	// The hypoexponential mean equals the sum of the per-stage means; its
	// median is below the mean for these shapes.
	if !(q50 < m.Delay[0]) {
		t.Errorf("median %g above mean %g", q50, m.Delay[0])
	}
	if _, err := DelayQuantile(c, m, 9, 0.5); err == nil {
		t.Error("out-of-range class accepted")
	}
}

func TestCheckSLAs(t *testing.T) {
	c := testCluster()
	m, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := CheckSLAs(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
	// gold bound is 2 s; delay at these speeds should satisfy it.
	if !reports[0].Satisfied() {
		t.Errorf("gold SLA should hold: %+v", reports[0])
	}
	// Tighten the gold bound beyond reach.
	c.Classes[0].SLA.MaxMeanDelay = 1e-6
	m2, _ := Evaluate(c)
	r2, _ := CheckSLAs(c, m2)
	if r2[0].Satisfied() {
		t.Error("impossible SLA reported as satisfied")
	}
	// Percentile SLA path.
	c.Classes[1].SLA = SLA{PercentileDelay: 100, Percentile: 0.95}
	m3, _ := Evaluate(c)
	r3, _ := CheckSLAs(c, m3)
	if !r3[1].TailOK || r3[1].TailDelay <= 0 {
		t.Errorf("loose tail SLA should hold: %+v", r3[1])
	}
}

func TestCostAndRevenue(t *testing.T) {
	c := testCluster()
	// 3 tiers × 1 server × $2.
	if got := TotalCost(c); !almostEq(got, 6, 1e-12) {
		t.Errorf("cost = %g", got)
	}
	// 0.8·3 + 0.8·1 = 3.2.
	if got := Revenue(c); !almostEq(got, 3.2, 1e-12) {
		t.Errorf("revenue = %g", got)
	}
}

func TestSpeedsRoundTrip(t *testing.T) {
	c := testCluster()
	want := []float64{2, 3, 5}
	if err := c.SetSpeeds(want); err != nil {
		t.Fatal(err)
	}
	got := c.Speeds()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("speed %d = %g", i, got[i])
		}
	}
	if err := c.SetSpeeds([]float64{1}); err == nil {
		t.Error("wrong-length speed vector accepted")
	}
}

func TestSpeedBounds(t *testing.T) {
	c := testCluster()
	lo, hi := c.SpeedBounds()
	if len(lo) != 3 || len(hi) != 3 {
		t.Fatal("wrong lengths")
	}
	for i := range lo {
		// Stability minimum is 1.6 work/s; MinSpeed 0.5 is below it, so
		// the bound must be lifted just above 1.6.
		if lo[i] < 1.6 || lo[i] > 1.7 {
			t.Errorf("lo[%d] = %g", i, lo[i])
		}
		if hi[i] != 10 {
			t.Errorf("hi[%d] = %g", i, hi[i])
		}
		if lo[i] >= hi[i] {
			t.Errorf("bounds inverted at %d", i)
		}
	}
	// Unbounded MaxSpeed gets a generous default.
	c2 := testCluster()
	c2.Tiers[0].MaxSpeed = 0
	c2.Tiers[0].Speed = 4
	_, hi2 := c2.SpeedBounds()
	if hi2[0] <= 10 {
		t.Errorf("default hi = %g, want generous", hi2[0])
	}
}

func TestClusterClone(t *testing.T) {
	c := testCluster()
	c.Routes = [][]int{{0, 1}, {0, 1, 2}}
	cl := c.Clone()
	cl.Tiers[0].Speed = 99
	cl.Classes[0].Lambda = 99
	cl.Routes[0][0] = 2
	cl.Tiers[1].Demands[0].Work = 42
	if c.Tiers[0].Speed == 99 || c.Classes[0].Lambda == 99 || c.Routes[0][0] == 2 ||
		c.Tiers[1].Demands[0].Work == 42 {
		t.Error("clone shares state")
	}
}

func TestPartialRoutesInCluster(t *testing.T) {
	c := testCluster()
	c.Routes = [][]int{{0, 1, 2}, {0}} // bronze only touches web
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !(m.Delay[1] < m.Delay[0]) {
		t.Errorf("single-tier route should be faster: %v", m.Delay)
	}
	// Energy for bronze comes from one tier only.
	if !(m.EnergyPerRequest[1] < m.EnergyPerRequest[0]) {
		t.Errorf("energy not reduced on short route: %v", m.EnergyPerRequest)
	}
}
