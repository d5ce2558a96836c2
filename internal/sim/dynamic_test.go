package sim

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

func TestProfilesValidation(t *testing.T) {
	if _, err := NewSinusoid(1, 2, 10); err == nil {
		t.Error("amplitude > mean accepted")
	}
	if _, err := NewSinusoid(1, 0.5, 0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewSquareWave(2, 1, 10, 0.5); err == nil {
		t.Error("high < low accepted")
	}
	if _, err := NewSquareWave(1, 2, 10, 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, a := range [][3]float64{{inf, 0, 10}, {nan, 0, 10}, {1, nan, 10}, {1, 0.5, inf}, {1, 0.5, nan}} {
		if _, err := NewSinusoid(a[0], a[1], a[2]); err == nil {
			t.Errorf("NewSinusoid%v accepted", a)
		}
	}
	for _, a := range [][4]float64{{1, inf, 10, 0.5}, {nan, 2, 10, 0.5}, {1, nan, 10, 0.5},
		{1, 2, inf, 0.5}, {1, 2, 10, nan}} {
		if _, err := NewSquareWave(a[0], a[1], a[2], a[3]); err == nil {
			t.Errorf("NewSquareWave%v accepted", a)
		}
	}
	sw, err := NewSquareWave(1, 3, 10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if sw.RateAt(1) != 3 || sw.RateAt(5) != 1 || sw.RateAt(11) != 3 {
		t.Error("square wave phases wrong")
	}
	if sw.MaxRate() != 3 {
		t.Error("square max")
	}
	sin, err := NewSinusoid(2, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := sin.RateAt(25); !almostEq(got, 3, 1e-9) {
		t.Errorf("sinusoid peak = %g", got)
	}
	if sin.MaxRate() != 3 {
		t.Error("sinusoid max")
	}
}

func TestMeanRate(t *testing.T) {
	if MeanRate(ConstantRate(2.5)) != 2.5 {
		t.Error("constant mean")
	}
	sin, _ := NewSinusoid(2, 1, 100)
	if MeanRate(sin) != 2 {
		t.Error("sinusoid mean")
	}
	sw, _ := NewSquareWave(1, 3, 10, 0.5)
	if MeanRate(sw) != 2 {
		t.Error("square mean")
	}
}

func TestThinningRealizesMeanRate(t *testing.T) {
	// A sinusoidal profile must deliver its mean rate of completions in a
	// lightly loaded system (throughput in = throughput out).
	c := oneTier(4, 4, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 99 /* ignored when a profile is set */}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	sin, _ := NewSinusoid(2, 1.5, 500)
	o := Options{Horizon: 30000, Replications: 3, Seed: 21, Profiles: []Profile{sin}}
	res, err := Run(c, o)
	if err != nil {
		t.Fatal(err)
	}
	span := (o.Horizon - o.Horizon*0.1) * float64(res.Replications)
	got := float64(res.Completed[0]) / span
	if relErr(got, 2) > 0.03 {
		t.Errorf("throughput %g, want 2 (profile mean)", got)
	}
}

func TestSquareWaveLoadSwings(t *testing.T) {
	// Under a square wave that saturates the station in the high phase,
	// delays must be much worse than under a constant load at the mean.
	demands := []queueing.Demand{{Work: 1, CV2: 1}}
	cls := []cluster.Class{{Name: "a", Lambda: 0.6}}
	c := oneTier(1, 1, queueing.FCFS, cls, demands)
	resConst, err := Run(c, Options{Horizon: 30000, Replications: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := NewSquareWave(0.25, 0.95, 2000, 0.5) // same mean 0.6
	resSwing, err := Run(c, Options{Horizon: 30000, Replications: 3, Seed: 5, Profiles: []Profile{sw}})
	if err != nil {
		t.Fatal(err)
	}
	if !(resSwing.Delay[0].Mean > 1.5*resConst.Delay[0].Mean) {
		t.Errorf("swinging load delay %g not clearly worse than constant %g",
			resSwing.Delay[0].Mean, resConst.Delay[0].Mean)
	}
}

func TestProfileOptionValidation(t *testing.T) {
	c := oneTier(1, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.5}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	if _, err := Run(c, Options{Horizon: 100, Profiles: []Profile{ConstantRate(1), ConstantRate(1)}}); err == nil {
		t.Error("profile count mismatch accepted")
	}
	if _, err := Run(c, Options{Horizon: 100, Controller: StaticPolicy{}}); err == nil {
		t.Error("controller without period accepted")
	}
}

func TestStaticControllerIsNoOp(t *testing.T) {
	c := oneTier(1, 2, queueing.NonPreemptive,
		[]cluster.Class{{Name: "a", Lambda: 0.9}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	plain, err := Run(c, Options{Horizon: 8000, Replications: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := Run(c, Options{Horizon: 8000, Replications: 2, Seed: 3,
		Controller: StaticPolicy{}, ControlPeriod: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(plain.Delay[0].Mean, ctl.Delay[0].Mean, 1e-9) {
		t.Errorf("static controller changed results: %g vs %g", plain.Delay[0].Mean, ctl.Delay[0].Mean)
	}
	// Power can differ in the 4th digit: the warmup reset lands on the
	// first event past the warmup time, and control events shift it.
	if !almostEq(plain.TotalPower.Mean, ctl.TotalPower.Mean, 1e-3) {
		t.Errorf("static controller changed power: %g vs %g", plain.TotalPower.Mean, ctl.TotalPower.Mean)
	}
}

func TestSetSpeedExactWithDeterministicService(t *testing.T) {
	// One deterministic job in service; halving the speed mid-run must
	// stretch exactly the remaining half of the work. We verify indirectly:
	// with speed changes the measured mean service-ish response stays
	// consistent with work conservation (served work rate = λ·E[work]).
	pm, _ := power.NewPowerLaw(10, 1, 2)
	c := &cluster.Cluster{
		Tiers: []*cluster.Tier{{
			Name: "t", Servers: 1, Speed: 2, MinSpeed: 1, MaxSpeed: 4,
			Discipline: queueing.FCFS, Power: pm,
			Demands: []queueing.Demand{{Work: 1, CV2: 0}},
		}},
		Classes: []cluster.Class{{Name: "a", Lambda: 0.8}},
	}
	// A controller that oscillates the speed but averages the same
	// capacity; the system must stay stable and conserve throughput.
	res, err := Run(c, Options{
		Horizon: 30000, Replications: 3, Seed: 9,
		Controller: flipFlop{}, ControlPeriod: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	span := (30000 - 3000) * 3.0
	thr := float64(res.Completed[0]) / span
	if relErr(thr, 0.8) > 0.03 {
		t.Errorf("throughput %g under speed flapping, want 0.8", thr)
	}
}

// flipFlop alternates between two speeds whose harmonic structure keeps the
// station stable (1.5 and 3.0 around offered work rate 0.8).
type flipFlop struct{}

func (flipFlop) Name() string { return "flipflop" }
func (flipFlop) Decide(obs Observation) float64 {
	if obs.Speed < 2 {
		return 3
	}
	return 1.5
}

func TestUtilizationPolicyDecide(t *testing.T) {
	p := UtilizationPolicy{Target: 0.5, Gain: 1}
	// Running at util 1.0 with target 0.5 → double the speed.
	obs := Observation{Utilization: 1, Speed: 2, Servers: 2, QueueLen: 0, MinSpeed: 0.5, MaxSpeed: 10}
	if got := p.Decide(obs); !almostEq(got, 4, 1e-9) {
		t.Errorf("decide = %g, want 4", got)
	}
	// Util below target → slow down.
	obs.Utilization = 0.25
	if got := p.Decide(obs); !almostEq(got, 1, 1e-9) {
		t.Errorf("decide = %g, want 1", got)
	}
	// Queue pressure boosts beyond the pure-utilization estimate.
	obs.Utilization = 1
	obs.QueueLen = 20
	boosted := p.Decide(obs)
	if !(boosted > 4) {
		t.Errorf("queue pressure ignored: %g", boosted)
	}
	// Clamping.
	obs.MaxSpeed = 3
	if got := p.Decide(obs); got != 3 {
		t.Errorf("clamp to max failed: %g", got)
	}
	// Defaults are sane.
	d := UtilizationPolicy{}
	if d.target() != 0.7 || d.gain() != 0.5 || d.queueGain() != 0.1 {
		t.Error("defaults wrong")
	}
	if len(d.Name()) == 0 || len(StaticPolicy{}.Name()) == 0 {
		t.Error("policy names empty")
	}
}

func TestReactiveControllerTracksDiurnalLoad(t *testing.T) {
	// The headline dynamic-power-management result: under a diurnal load,
	// the reactive policy should (a) spend less power than a static
	// allocation provisioned for the PEAK, while (b) keeping delays far
	// better than a static allocation provisioned for the MEAN.
	pm, _ := power.NewPowerLaw(100, 2, 3)
	mk := func(speed float64) *cluster.Cluster {
		return &cluster.Cluster{
			Tiers: []*cluster.Tier{{
				Name: "t", Servers: 2, Speed: speed, MinSpeed: 0.5, MaxSpeed: 6,
				Discipline: queueing.NonPreemptive, Power: pm,
				Demands: []queueing.Demand{{Work: 1, CV2: 1}},
			}},
			Classes: []cluster.Class{{Name: "a", Lambda: 2}},
		}
	}
	sin, _ := NewSinusoid(2, 1.6, 4000) // swings 0.4 … 3.6 req/s
	base := Options{Horizon: 40000, Replications: 3, Seed: 17, Profiles: []Profile{sin}}

	// Static provisioned for the peak: speed so that util at peak ≈ 0.75.
	peak := mk(3.6 / 2 / 0.75)
	oPeak := base
	resPeak, err := Run(peak, oPeak)
	if err != nil {
		t.Fatal(err)
	}
	// Static provisioned for the mean: util at mean ≈ 0.75 — saturates at peak.
	mean := mk(2.0 / 2 / 0.75)
	resMean, err := Run(mean, base)
	if err != nil {
		t.Fatal(err)
	}
	// Reactive: starts at the mean allocation, adapts every 20 s.
	oCtl := base
	oCtl.Controller = UtilizationPolicy{Target: 0.75}
	oCtl.ControlPeriod = 20
	resCtl, err := Run(mean, oCtl)
	if err != nil {
		t.Fatal(err)
	}

	if !(resCtl.TotalPower.Mean < resPeak.TotalPower.Mean) {
		t.Errorf("reactive power %g not below peak-static %g",
			resCtl.TotalPower.Mean, resPeak.TotalPower.Mean)
	}
	if !(resCtl.Delay[0].Mean < resMean.Delay[0].Mean/2) {
		t.Errorf("reactive delay %g not clearly better than mean-static %g",
			resCtl.Delay[0].Mean, resMean.Delay[0].Mean)
	}
}
