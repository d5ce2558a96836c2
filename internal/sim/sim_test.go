package sim

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// oneTier builds a single-tier cluster with the given parameters.
func oneTier(servers int, speed float64, disc queueing.Discipline, classes []cluster.Class, demands []queueing.Demand) *cluster.Cluster {
	pm, _ := power.NewPowerLaw(100, 10, 2)
	return &cluster.Cluster{
		Tiers: []*cluster.Tier{{
			Name: "t0", Servers: servers, Speed: speed,
			Discipline: disc, Power: pm, Demands: demands,
		}},
		Classes: classes,
	}
}

func run(t *testing.T, c *cluster.Cluster, o Options) *Result {
	t.Helper()
	r, err := Run(c, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSimMM1MeanResponse(t *testing.T) {
	// M/M/1 with λ=0.7, μ=1 (work 1, speed 1): E[T] = 1/(1−0.7)/1 = 10/3.
	c := oneTier(1, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.7}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	res := run(t, c, Options{Horizon: 60000, Replications: 5, Seed: 1})
	want := 1 / (1 - 0.7)
	if relErr(res.Delay[0].Mean, want) > 0.04 {
		t.Errorf("M/M/1 delay = %v, want %g", res.Delay[0], want)
	}
	// Utilization law.
	if relErr(res.Tiers[0].Utilization.Mean, 0.7) > 0.03 {
		t.Errorf("utilization = %v, want 0.7", res.Tiers[0].Utilization)
	}
}

func TestSimMD1Wait(t *testing.T) {
	// M/D/1: wait is half the M/M/1 wait. λ=0.8, service 1 ⇒ E[W]=2, E[T]=3.
	c := oneTier(1, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.8}},
		[]queueing.Demand{{Work: 1, CV2: 0}})
	res := run(t, c, Options{Horizon: 80000, Replications: 5, Seed: 2})
	if relErr(res.Delay[0].Mean, 3) > 0.05 {
		t.Errorf("M/D/1 response = %v, want 3", res.Delay[0])
	}
}

func TestSimMMcMatchesErlangC(t *testing.T) {
	// M/M/3, λ=2.4, μ=1.
	c := oneTier(3, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 2.4}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	q, _ := queueing.NewMMc(2.4, 1, 3)
	res := run(t, c, Options{Horizon: 50000, Replications: 5, Seed: 3})
	if relErr(res.Delay[0].Mean, q.MeanResponse()) > 0.05 {
		t.Errorf("M/M/3 response = %v, want %g", res.Delay[0], q.MeanResponse())
	}
}

func TestSimNonPreemptivePriorityMatchesCobham(t *testing.T) {
	// Two classes, λ=0.25 each, exp work 1, speed 1.
	classes := []cluster.Class{{Name: "hi", Lambda: 0.25}, {Name: "lo", Lambda: 0.25}}
	demands := []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 1}}
	c := oneTier(1, 1, queueing.NonPreemptive, classes, demands)
	res := run(t, c, Options{Horizon: 60000, Replications: 5, Seed: 4})
	// Known values: W1 = 2/3, W2 = 4/3 ⇒ T1 = 5/3, T2 = 7/3.
	if relErr(res.Delay[0].Mean, 5.0/3) > 0.05 {
		t.Errorf("high class response = %v, want %g", res.Delay[0], 5.0/3)
	}
	if relErr(res.Delay[1].Mean, 7.0/3) > 0.05 {
		t.Errorf("low class response = %v, want %g", res.Delay[1], 7.0/3)
	}
	// Per-tier wait decomposition matches Cobham directly.
	if relErr(res.Tiers[0].WaitByClass[0].Mean, 2.0/3) > 0.06 {
		t.Errorf("tier wait hi = %v, want %g", res.Tiers[0].WaitByClass[0], 2.0/3)
	}
	if relErr(res.Tiers[0].WaitByClass[1].Mean, 4.0/3) > 0.06 {
		t.Errorf("tier wait lo = %v, want %g", res.Tiers[0].WaitByClass[1], 4.0/3)
	}
}

func TestSimPreemptiveResumeMatchesTheory(t *testing.T) {
	classes := []cluster.Class{{Name: "hi", Lambda: 0.25}, {Name: "lo", Lambda: 0.25}}
	demands := []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 1}}
	c := oneTier(1, 1, queueing.PreemptiveResume, classes, demands)
	res := run(t, c, Options{Horizon: 60000, Replications: 5, Seed: 5})
	// T1 = 4/3 (private M/M/1), T2 = 8/3.
	if relErr(res.Delay[0].Mean, 4.0/3) > 0.05 {
		t.Errorf("high class response = %v, want %g", res.Delay[0], 4.0/3)
	}
	if relErr(res.Delay[1].Mean, 8.0/3) > 0.06 {
		t.Errorf("low class response = %v, want %g", res.Delay[1], 8.0/3)
	}
}

func TestSimTandemNetworkMatchesAnalytic(t *testing.T) {
	// 3 identical FCFS M/M/1 tiers in tandem: Burke's theorem makes the
	// analytical product form exact. λ=0.6, μ=speed=2 per tier.
	pm, _ := power.NewPowerLaw(50, 5, 2)
	mk := func(name string) *cluster.Tier {
		return &cluster.Tier{Name: name, Servers: 1, Speed: 2,
			Discipline: queueing.FCFS, Power: pm,
			Demands: []queueing.Demand{{Work: 1, CV2: 1}}}
	}
	c := &cluster.Cluster{
		Tiers:   []*cluster.Tier{mk("a"), mk("b"), mk("c")},
		Classes: []cluster.Class{{Name: "x", Lambda: 0.6}},
	}
	m, err := cluster.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, c, Options{Horizon: 40000, Replications: 5, Seed: 6})
	if relErr(res.Delay[0].Mean, m.Delay[0]) > 0.04 {
		t.Errorf("tandem delay sim %v vs analytic %g", res.Delay[0], m.Delay[0])
	}
	if relErr(res.TotalPower.Mean, m.TotalPower) > 0.03 {
		t.Errorf("power sim %v vs analytic %g", res.TotalPower, m.TotalPower)
	}
	if relErr(res.EnergyPerRequest[0].Mean, m.EnergyPerRequest[0]) > 0.04 {
		t.Errorf("energy/request sim %v vs analytic %g", res.EnergyPerRequest[0], m.EnergyPerRequest[0])
	}
}

func TestSimPowerAccounting(t *testing.T) {
	// Zero traffic: power must equal the idle floor exactly.
	c := oneTier(4, 2, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	res := run(t, c, Options{Horizon: 1000, Replications: 2, Seed: 7})
	want := 4 * 100.0 // 4 servers × idle 100 W
	if relErr(res.TotalPower.Mean, want) > 1e-9 {
		t.Errorf("idle power = %v, want %g", res.TotalPower, want)
	}
	if res.Completed[0] != 0 {
		t.Error("completions with zero traffic")
	}
}

func TestSimQuantiles(t *testing.T) {
	// M/M/1 response is Exp(μ−λ): quantiles are −ln(1−p)/(μ−λ).
	c := oneTier(1, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.5}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	res := run(t, c, Options{Horizon: 60000, Replications: 5, Seed: 8, Quantiles: []float64{0.5, 0.95}})
	rate := 0.5
	// The P² estimator converges slowly on the skewed tail: across seeds
	// the p95 lands within ~1–7% at this sample size, so the tolerance is
	// wider than for means.
	for _, p := range []float64{0.5, 0.95} {
		want := -math.Log(1-p) / rate
		got := res.DelayQuantile[0][p]
		if relErr(got, want) > 0.10 {
			t.Errorf("p%g quantile = %g, want %g", p*100, got, want)
		}
	}
}

func TestSimPrioritySeparation(t *testing.T) {
	// At high load, the priority gap must be large and ordered.
	classes := []cluster.Class{
		{Name: "gold", Lambda: 0.3},
		{Name: "silver", Lambda: 0.3},
		{Name: "bronze", Lambda: 0.3},
	}
	demands := []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 1}, {Work: 1, CV2: 1}}
	c := oneTier(1, 1, queueing.NonPreemptive, classes, demands)
	res := run(t, c, Options{Horizon: 50000, Replications: 3, Seed: 9})
	d := res.Delay
	if !(d[0].Mean < d[1].Mean && d[1].Mean < d[2].Mean) {
		t.Errorf("priority ordering violated: %g %g %g", d[0].Mean, d[1].Mean, d[2].Mean)
	}
}

func TestSimReproducible(t *testing.T) {
	c := oneTier(1, 1, queueing.NonPreemptive,
		[]cluster.Class{{Name: "a", Lambda: 0.5}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	o := Options{Horizon: 2000, Replications: 2, Seed: 33}
	r1 := run(t, c, o)
	r2 := run(t, c, o)
	if r1.Delay[0].Mean != r2.Delay[0].Mean {
		t.Error("same seed produced different results")
	}
	o.Seed = 34
	r3 := run(t, c, o)
	if r1.Delay[0].Mean == r3.Delay[0].Mean {
		t.Error("different seeds produced identical results")
	}
}

func TestSimLittlesLaw(t *testing.T) {
	// Throughput in = throughput out at steady state: completions per unit
	// time ≈ λ (per class).
	classes := []cluster.Class{{Name: "a", Lambda: 0.4}, {Name: "b", Lambda: 0.3}}
	demands := []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 1}}
	c := oneTier(2, 1, queueing.NonPreemptive, classes, demands)
	o := Options{Horizon: 50000, Replications: 3, Seed: 10}
	res := run(t, c, o)
	measureSpan := (o.Horizon - o.Horizon*0.1) * float64(res.Replications)
	for k, want := range []float64{0.4, 0.3} {
		got := float64(res.Completed[k]) / measureSpan
		if relErr(got, want) > 0.03 {
			t.Errorf("class %d throughput = %g, want %g", k, got, want)
		}
	}
}

func TestSimOptionsValidation(t *testing.T) {
	c := oneTier(1, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.1}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	if _, err := Run(c, Options{}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Run(c, Options{Horizon: 10, Warmup: 20}); err == nil {
		t.Error("warmup beyond horizon accepted")
	}
	bad := oneTier(0, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.1}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	if _, err := Run(bad, Options{Horizon: 10}); err == nil {
		t.Error("invalid cluster accepted")
	}
}

func TestSimPartialRoute(t *testing.T) {
	pm, _ := power.NewPowerLaw(10, 1, 2)
	mk := func(name string) *cluster.Tier {
		return &cluster.Tier{Name: name, Servers: 1, Speed: 2,
			Discipline: queueing.NonPreemptive, Power: pm,
			Demands: []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 1}}}
	}
	c := &cluster.Cluster{
		Tiers: []*cluster.Tier{mk("a"), mk("b")},
		Classes: []cluster.Class{
			{Name: "full", Lambda: 0.4},
			{Name: "short", Lambda: 0.4},
		},
		Routes: [][]int{{0, 1}, {0}},
	}
	res := run(t, c, Options{Horizon: 30000, Replications: 3, Seed: 12})
	if !(res.Delay[1].Mean < res.Delay[0].Mean) {
		t.Errorf("short route should be faster: %g vs %g", res.Delay[1].Mean, res.Delay[0].Mean)
	}
	m, _ := cluster.Evaluate(c)
	for k := range c.Classes {
		if relErr(res.Delay[k].Mean, m.Delay[k]) > 0.08 {
			t.Errorf("class %d sim %g vs analytic %g", k, res.Delay[k].Mean, m.Delay[k])
		}
	}
}

func TestSimHighVariabilityService(t *testing.T) {
	// Hyperexponential service (CV²=4): P-K says E[W] = λE[S²]/(2(1−ρ)).
	lam := 0.5
	c := oneTier(1, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: lam}},
		[]queueing.Demand{{Work: 1, CV2: 4}})
	d := queueing.DistForCV2(1, 4)
	wantW := lam * d.SecondMoment() / (2 * (1 - lam))
	res := run(t, c, Options{Horizon: 120000, Replications: 5, Seed: 13})
	if relErr(res.Delay[0].Mean, wantW+1) > 0.08 {
		t.Errorf("hyperexp response = %v, want %g", res.Delay[0], wantW+1)
	}
}

func TestSimCIsCoverAnalytic(t *testing.T) {
	// The 95% CI from replications should usually contain the exact value.
	c := oneTier(1, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.6}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	res := run(t, c, Options{Horizon: 50000, Replications: 8, Seed: 20})
	want := 1 / (1 - 0.6)
	if !res.Delay[0].Contains(want) && res.Delay[0].RelErr(want) > 0.03 {
		t.Errorf("CI %v does not cover %g", res.Delay[0], want)
	}
}
