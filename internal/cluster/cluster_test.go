package cluster

import (
	"fmt"
	"math"
	"reflect"
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

// tandem builds a 3-tier cluster of single-server non-preemptive tiers at
// the given speed, every class bringing unit exponential work, with one
// class per arrival rate.
func tandem(speed float64, lambda ...float64) *Cluster {
	pm, _ := power.NewPowerLaw(100, 10, 3)
	c := &Cluster{}
	for _, name := range []string{"web", "app", "db"} {
		c.Tiers = append(c.Tiers, &Tier{
			Name: name, Servers: 1, Speed: speed,
			Discipline: queueing.NonPreemptive, Power: pm,
			Demands: make([]queueing.Demand, len(lambda)),
		})
	}
	for k, l := range lambda {
		c.Classes = append(c.Classes, Class{Name: fmt.Sprint("class", k), Lambda: l})
		for _, t := range c.Tiers {
			t.Demands[k] = queueing.Demand{Work: 1, CV2: 1}
		}
	}
	return c
}

func TestClusterValidate(t *testing.T) {
	if err := testCluster().Validate(); err != nil {
		t.Fatal(err)
	}
	recurrent := &queueing.ClassRouting{
		Entry: []float64{1, 0, 0},
		Next:  [][]float64{{1, 0, 0}, {0, 0, 0}, {0, 0, 0}},
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *Cluster)
	}{
		{"no-tiers", func(c *Cluster) { c.Tiers = nil }},
		{"no-classes", func(c *Cluster) { c.Classes = nil }},
		{"negative-lambda", func(c *Cluster) { c.Classes[0].Lambda = -1 }},
		{"total-lambda-overflow", func(c *Cluster) { c.Classes[0].Lambda, c.Classes[1].Lambda = 1e308, 1e308 }},
		{"no-power-model", func(c *Cluster) { c.Tiers[0].Power = nil }},
		{"route-count-mismatch", func(c *Cluster) { c.Routes = [][]int{{0}} }},
		{"speed-above-max", func(c *Cluster) { c.Tiers[0].Speed = 20 }},
		{"demand-count-mismatch", func(c *Cluster) { c.Tiers[0].Demands = c.Tiers[0].Demands[:1] }},
		{"route-tier-out-of-range", func(c *Cluster) { c.Routes = [][]int{{0, 1, 5}, {0}} }},
		{"route-tier-negative", func(c *Cluster) { c.Routes = [][]int{{0}, {-1}} }},
		{"empty-route", func(c *Cluster) { c.Routes = [][]int{{0, 1, 2}, {}} }},
		{"routing-count-mismatch", func(c *Cluster) { c.Routing = []*queueing.ClassRouting{nil} }},
		{"non-transient-chain", func(c *Cluster) { c.Routing = []*queueing.ClassRouting{nil, recurrent} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster()
			tc.mutate(c)
			if err := c.Validate(); err == nil {
				t.Error("accepted")
			}
		})
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

// TestEvaluateDelaysMatchNetwork checks Evaluate's per-class delays against
// the closed forms of the tandem queueing network the cluster models.
func TestEvaluateDelaysMatchNetwork(t *testing.T) {
	eval := func(t *testing.T, c *Cluster) *Metrics {
		t.Helper()
		m, err := Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"priority-two-class", func(t *testing.T) {
			m := eval(t, testCluster())
			if !(m.Delay[0] < m.Delay[1]) {
				t.Error("priority ordering violated")
			}
			if !m.Stable() {
				t.Error("cluster should be stable")
			}
		}},
		{"tandem-sum-of-mm1", func(t *testing.T) {
			// One class, three identical exponential tiers: with the Poisson
			// approximation the end-to-end delay is 3 × M/M/1 response (this
			// is exact for FCFS tandem by Burke's theorem).
			m := eval(t, tandem(2, 1.2)) // μ = speed/work = 2
			mm1, _ := queueing.NewMM1(1.2, 2)
			if want := 3 * mm1.MeanResponse(); !almostEq(m.Delay[0], want, 1e-12) {
				t.Errorf("end-to-end = %g, want %g", m.Delay[0], want)
			}
			for j := 0; j < 3; j++ {
				if !almostEq(m.Breakdown.PerStation[0][j], mm1.MeanResponse(), 1e-12) {
					t.Errorf("tier %d response = %g", j, m.Breakdown.PerStation[0][j])
				}
				if !almostEq(m.Breakdown.Wait[0][j], mm1.MeanWait(), 1e-12) {
					t.Errorf("tier %d wait = %g", j, m.Breakdown.Wait[0][j])
				}
			}
		}},
		{"priority-ordering", func(t *testing.T) {
			m := eval(t, tandem(4, 0.8, 0.8, 0.8))
			if !(m.Delay[0] < m.Delay[1] && m.Delay[1] < m.Delay[2]) {
				t.Errorf("end-to-end delays not ordered by priority: %v", m.Delay)
			}
		}},
		{"unstable-station", func(t *testing.T) {
			m := eval(t, tandem(1, 0.6, 0.6)) // σ = 1.2 > 1
			if !math.IsInf(m.Delay[1], 1) {
				t.Error("low class should have infinite delay through saturated tiers")
			}
			if math.IsInf(m.Delay[0], 1) {
				t.Error("high class should stay finite (σ1 = 0.6 < 1)")
			}
			if m.Stable() {
				t.Error("a class with infinite delay reported stable")
			}
		}},
		{"bottleneck", func(t *testing.T) {
			c := tandem(2, 0.9)
			c.Tiers[1].Speed = 1 // app tier slowest → bottleneck
			m := eval(t, c)
			if !m.Stable() {
				t.Error("should be stable at λ=0.9")
			}
			if !almostEq(m.Tiers[1].Utilization, 0.9, 1e-12) {
				t.Errorf("bottleneck util = %g", m.Tiers[1].Utilization)
			}
			for j, tm := range m.Tiers {
				if tm.Utilization > m.Tiers[1].Utilization {
					t.Errorf("tier %d util %g above the bottleneck's", j, tm.Utilization)
				}
			}
			c.Classes[0].Lambda = 1.1
			if eval(t, c).Stable() {
				t.Error("should be unstable at λ=1.1")
			}
		}},
		{"chain-matches-tandem", func(t *testing.T) {
			// A tandem expressed as a chain must give exactly the delays of
			// the deterministic tandem.
			chain := tandem(2, 1.2)
			r, err := queueing.RoutingFromRoute([]int{0, 1, 2}, 3)
			if err != nil {
				t.Fatal(err)
			}
			chain.Routing = []*queueing.ClassRouting{r}
			det, got := eval(t, tandem(2, 1.2)), eval(t, chain)
			if !almostEq(det.Delay[0], got.Delay[0], 1e-12) {
				t.Errorf("chain %g vs deterministic %g", got.Delay[0], det.Delay[0])
			}
		}},
		{"retry-loop", func(t *testing.T) {
			// Jackson single station with feedback p: arrival rate λ/(1−p),
			// expected E2E = v·T with v = 1/(1−p) and T the M/M/1 response
			// at the inflated rate.
			p, lam := 0.4, 0.6
			c := tandem(2, lam)
			c.Tiers = c.Tiers[:1]
			c.Routing = []*queueing.ClassRouting{{Entry: []float64{1}, Next: [][]float64{{p}}}}
			m := eval(t, c)
			v := 1 / (1 - p)
			mm1, _ := queueing.NewMM1(lam*v, 2)
			if want := v * mm1.MeanResponse(); !almostEq(m.Delay[0], want, 1e-9) {
				t.Errorf("retry-loop delay %g, want %g", m.Delay[0], want)
			}
			// Stability reflects the inflated load.
			if !m.Stable() {
				t.Error("should be stable")
			}
			c.Classes[0].Lambda = 1.3 // 1.3/(1−0.4) = 2.17 > μ = 2
			if eval(t, c).Stable() {
				t.Error("should be unstable with retries")
			}
		}},
	} {
		t.Run(tc.name, tc.check)
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
	for _, tc := range []struct {
		name   string
		set    func(c *Cluster)
		mutate func(c *Cluster)
	}{
		{"tiers-classes-routes", func(c *Cluster) { c.Routes = [][]int{{0, 1}, {0, 1, 2}} }, func(c *Cluster) {
			c.Tiers[0].Speed = 99
			c.Classes[0].Lambda = 99
			c.Routes[0][0] = 2
			c.Tiers[1].Demands[0].Work = 42
		}},
		{"routing-chain", func(c *Cluster) {
			c.Routing = []*queueing.ClassRouting{nil, {
				Entry: []float64{1, 0, 0},
				Next:  [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0.5, 0}},
			}}
		}, func(c *Cluster) {
			c.Routing[1].Entry[0] = 0.5
			c.Routing[1].Next[2][1] = 0.9
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster()
			tc.set(c)
			want := testCluster()
			tc.set(want)
			tc.mutate(c.Clone())
			if !reflect.DeepEqual(c, want) {
				t.Error("clone shares state")
			}
		})
	}
}

func TestPartialRoutesInCluster(t *testing.T) {
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"single-tier-route", func(t *testing.T) {
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
		}},
		{"partial-route", func(t *testing.T) {
			// Class 1 skips the db tier; its delay must be smaller than the
			// full route at the same load, and the db tier must not see its
			// traffic.
			c := tandem(4, 0.5, 0.5)
			c.Routes = [][]int{{0, 1, 2}, {0, 1}}
			m, err := Evaluate(c)
			if err != nil {
				t.Fatal(err)
			}
			if !(m.Delay[1] < m.Delay[0]) {
				t.Errorf("shorter route should be faster: %v", m.Delay)
			}
			if at := c.TierModels()[2].Arrivals; at[0] != 0.5 || at[1] != 0 {
				t.Errorf("db arrivals = %v", at)
			}
		}},
		{"revisit", func(t *testing.T) {
			// A route visiting tier 0 twice doubles that tier's load, and
			// the end-to-end delay holds its response twice.
			c := tandem(4, 0.5)
			c.Routes = [][]int{{0, 1, 0}}
			if at := c.TierModels()[0].Arrivals; at[0] != 1.0 {
				t.Errorf("revisited tier load = %g, want 1", at[0])
			}
			m, err := Evaluate(c)
			if err != nil {
				t.Fatal(err)
			}
			bd := m.Breakdown
			if want := 2*bd.PerStation[0][0] + bd.PerStation[0][1]; !almostEq(m.Delay[0], want, 1e-12) {
				t.Errorf("end-to-end = %g, want %g", m.Delay[0], want)
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}
