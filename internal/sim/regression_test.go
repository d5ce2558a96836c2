package sim

import (
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

// regressionCluster is a moderately loaded single-tier priority station used
// by the white-box regression tests below: one visit per job, so per-tier and
// end-to-end counters must agree exactly.
func regressionCluster() *cluster.Cluster {
	return oneTier(1, 1, queueing.NonPreemptive,
		[]cluster.Class{{Name: "hi", Lambda: 0.3}, {Name: "lo", Lambda: 0.35}},
		[]queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 2}})
}

// TestWarmupDefaults pins the unset-vs-explicit-zero warmup semantics: the
// Options zero value selects the 10%-of-horizon default, ZeroWarmup (any
// negative) selects a genuine no-discard run, and a warmup at or beyond the
// horizon is rejected rather than silently measuring nothing.
func TestWarmupDefaults(t *testing.T) {
	unset := Options{Horizon: 1000}
	if err := unset.defaults(); err != nil {
		t.Fatal(err)
	}
	if unset.Warmup != 100 {
		t.Errorf("unset warmup resolved to %g, want the 10%% default 100", unset.Warmup)
	}

	zero := Options{Horizon: 1000, Warmup: ZeroWarmup}
	if err := zero.defaults(); err != nil {
		t.Fatal(err)
	}
	if zero.Warmup != 0 {
		t.Errorf("ZeroWarmup resolved to %g, want 0", zero.Warmup)
	}

	given := Options{Horizon: 1000, Warmup: 250}
	if err := given.defaults(); err != nil {
		t.Fatal(err)
	}
	if given.Warmup != 250 {
		t.Errorf("explicit warmup changed to %g, want 250 unchanged", given.Warmup)
	}

	for _, w := range []float64{1000, 1500} {
		bad := Options{Horizon: 1000, Warmup: w}
		if err := bad.defaults(); err == nil {
			t.Errorf("warmup %g >= horizon accepted, want error", w)
		}
	}
}

// TestZeroWarmupCountsEverything verifies the behavioral half of the
// sentinel fix: a ZeroWarmup run keeps the transient completions a
// default-warmup run discards, and its simulator never performs the warmup
// reset (warmupDone starts true). Before the fix an explicit Warmup of 0 was
// indistinguishable from unset and silently got the 10% default.
func TestZeroWarmupCountsEverything(t *testing.T) {
	c := regressionCluster()
	base := Options{Horizon: 800, Replications: 2, Seed: 11}

	withDefault := base
	noWarmup := base
	noWarmup.Warmup = ZeroWarmup
	resDefault, err := Run(c, withDefault)
	if err != nil {
		t.Fatal(err)
	}
	resZero, err := Run(c, noWarmup)
	if err != nil {
		t.Fatal(err)
	}
	var nDefault, nZero int64
	for k := range resDefault.Completed {
		nDefault += resDefault.Completed[k]
		nZero += resZero.Completed[k]
	}
	// Same seeds, same sample paths; the only difference is whether the
	// first 10% of each replication is discarded.
	if nZero <= nDefault {
		t.Errorf("ZeroWarmup counted %d completions, default warmup %d; want strictly more without the discard", nZero, nDefault)
	}

	o := noWarmup
	if err := o.defaults(); err != nil {
		t.Fatal(err)
	}
	s, err := newSimulator(c, o, o.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if !s.warmupDone {
		t.Error("ZeroWarmup simulator starts with warmupDone=false; the mid-run reset would discard data")
	}
}

// TestTierStatsMatchEndToEnd is the regression test for the per-tier warmup
// filter: on a single-tier cluster every job makes exactly one visit, so the
// per-tier wait/served counters must match the end-to-end delay counters
// sample for sample. Before the fix, jobs that arrived during the warmup
// transient but departed after the reset leaked into the tier stats (their
// end-to-end delay was correctly dropped), making the tier counts larger.
func TestTierStatsMatchEndToEnd(t *testing.T) {
	c := regressionCluster()
	o := Options{Horizon: 600, Warmup: 60, Replications: 1, Seed: 3}
	if err := o.defaults(); err != nil {
		t.Fatal(err)
	}
	s, err := newSimulator(c, o, o.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	s.run()
	st := s.stations[0]
	for k := range c.Classes {
		if st.servedCls[k] != s.completed[k] {
			t.Errorf("class %d: tier served %d visits but %d jobs completed; pre-warmup arrivals leaked into tier stats",
				k, st.servedCls[k], s.completed[k])
		}
		if st.waitByCls[k].Count() != s.delay[k].Count() {
			t.Errorf("class %d: tier wait has %d samples, end-to-end delay has %d",
				k, st.waitByCls[k].Count(), s.delay[k].Count())
		}
		if s.completed[k] == 0 {
			t.Errorf("class %d: no completions; the regression check needs post-warmup traffic", k)
		}
	}
}

// TestSteadyStateAllocationsBounded gates the allocation-free event loop in
// plain `go test` (CI's bench smoke only reports numbers; this fails the
// build). One full replication is ~40k calendar events; the pooled simulator
// allocates only setup state plus the high-water free lists, far below one
// allocation per event. The pre-pooling loop allocated ~3 objects per event
// and blows this bound by two orders of magnitude.
func TestSteadyStateAllocationsBounded(t *testing.T) {
	// The first subtest is named after the one calendar, the binary heap.
	t.Run("heap", func(t *testing.T) {
		assertSetupOnlyAllocs(t, regressionCluster(),
			Options{Horizon: 15000, Warmup: 100, Replications: 1, Seed: 5})
	})
	// Preemption, breakdowns and deadlines with retries: cancelled
	// departures leave the heap in place and timeouts wait in per-class
	// FIFOs, and both must reach a high-water mark and stop allocating.
	t.Run("preempt-breakdown-deadline", func(t *testing.T) {
		c := oneTier(2, 1, queueing.PreemptiveResume,
			[]cluster.Class{{Name: "hi", Lambda: 0.5}, {Name: "lo", Lambda: 0.7}},
			[]queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 2}})
		assertSetupOnlyAllocs(t, c, Options{
			Horizon: 15000, Warmup: 100, Replications: 1, Seed: 5,
			Failures: []*FailureConfig{{MTBF: 200, MTTR: 10}},
			Deadlines: []*DeadlineConfig{
				{Deadline: 6, MaxRetries: 1, RetryBackoff: 1},
				{Deadline: 8, MaxRetries: 2, RetryBackoff: 1},
			},
		})
	})
}

// assertSetupOnlyAllocs runs one full replication and fails when it made
// more allocations than setup and the free lists' high-water marks need.
func assertSetupOnlyAllocs(t *testing.T, c *cluster.Cluster, o Options) {
	t.Helper()
	if err := o.defaults(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		s, err := newSimulator(c, o, o.Seed, false)
		if err != nil {
			t.Fatal(err)
		}
		s.run()
		if s.summarize().completed[0] == 0 {
			t.Fatal("replication produced no completions")
		}
	})
	// Generous ceiling over the measured ~300 setup allocations; one
	// allocation per event would be ~40000.
	if allocs > 2000 {
		t.Errorf("full replication made %.0f allocations, want setup-only (<2000)", allocs)
	}
}

// hostileOptions are option values that used to pass validation and then
// broke the run: an infinite horizon never let Run return, a NaN warmup
// filtered out every arrival and reported NaN delays with a nil error, a NaN
// utilization target made the reactive policy decide NaN, which the station
// adapter clamped to the minimum speed on every epoch, a target of 1.5 was
// silently replaced by the default 0.7, an infinite shedding period
// scheduled its first epoch at +Inf, silently turning shedding off,
// an infinite profile rate generated arrivals at t = 0 until memory ran
// out, and a profile literal NewSinusoid or NewSquareWave would reject ran
// anyway (a NaN phase made every rate NaN, so thinning accepted every
// candidate and the class arrived at Mean+Amplitude), as did a Schedule
// literal, whose unset rate bound made thinning drop every arrival, and a
// probe period of 1e-9 s over a 10^4 s horizon appended timeline rows until
// memory ran out.
var hostileOptions = []struct {
	name string
	o    Options
}{
	{"infinite horizon", Options{Horizon: math.Inf(1)}},
	{"NaN warmup", Options{Horizon: 1000, Warmup: math.NaN()}},
	{"NaN utilization target", Options{Horizon: 1000,
		Controller: UtilizationPolicy{Target: math.NaN()}, ControlPeriod: 25}},
	{"utilization target above one", Options{Horizon: 1000,
		Controller: &UtilizationPolicy{Target: 1.5}, ControlPeriod: 25}},
	{"infinite shedding period", Options{Horizon: 1000,
		Shedding: &SheddingConfig{Threshold: 0.9, Period: math.Inf(1)}}},
	{"infinite profile rate", Options{Horizon: 1000,
		Profiles: []Profile{Sinusoid{Mean: math.Inf(1), Period: 10}, nil}}},
	{"NaN sinusoid phase", Options{Horizon: 1000,
		Profiles: []Profile{Sinusoid{Mean: 0.3, Amplitude: 0.25, Period: 1000, Phase: math.NaN()}, nil}}},
	{"infinite sinusoid phase", Options{Horizon: 1000,
		Profiles: []Profile{nil, Sinusoid{Mean: 0.3, Amplitude: 0.25, Period: 1000, Phase: math.Inf(-1)}}}},
	{"NaN sinusoid period", Options{Horizon: 1000,
		Profiles: []Profile{Sinusoid{Mean: 0.3, Amplitude: 0.25, Period: math.NaN()}, nil}}},
	{"zero sinusoid period", Options{Horizon: 1000,
		Profiles: []Profile{Sinusoid{Mean: 0.3, Amplitude: 0.25}, nil}}},
	{"NaN square wave period", Options{Horizon: 1000,
		Profiles: []Profile{SquareWave{Low: 0.1, High: 0.5, Period: math.NaN(), HighFraction: 0.5}, nil}}},
	{"NaN square wave low rate", Options{Horizon: 1000,
		Profiles: []Profile{SquareWave{Low: math.NaN(), High: 0.5, Period: 100, HighFraction: 0.5}, nil}}},
	{"NaN square wave high fraction", Options{Horizon: 1000,
		Profiles: []Profile{&SquareWave{Low: 0.1, High: 0.5, Period: 100, HighFraction: math.NaN()}, nil}}},
	{"schedule literal", Options{Horizon: 1000,
		Profiles: []Profile{Schedule{Times: []float64{0}, Rates: []float64{0.3}}, nil}}},
	{"probe period too fine", Options{Horizon: 1e4, Probe: &Probe{Period: 1e-9}}},
}

// TestHostileOptionsRejected pins that each hostile value is now an error
// from the shared validation path instead of a hung or silently empty run.
func TestHostileOptionsRejected(t *testing.T) {
	c := regressionCluster()
	for _, tc := range hostileOptions {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			if err := o.validate(c); err == nil {
				t.Error("accepted, want an error")
			}
		})
	}
}

// FuzzOptionsDefaults drives the horizon, warmup and shedding floats through
// defaults() and validation. Every input must either be rejected or leave a
// finite positive horizon, a warmup in [0, horizon) and a shedding band the
// event loop can act on; none may panic. The corpus starts from the hostile
// values above.
func FuzzOptionsDefaults(f *testing.F) {
	for _, tc := range hostileOptions {
		sc := SheddingConfig{Threshold: 0.9, Period: 25}
		if tc.o.Shedding != nil {
			sc = *tc.o.Shedding
		}
		f.Add(tc.o.Horizon, tc.o.Warmup, sc.Threshold, sc.Period)
	}
	f.Add(1000.0, 0.0, 0.0, 0.0)
	f.Add(1000.0, -1.0, 1.0, 10.0)
	c := regressionCluster()
	f.Fuzz(func(t *testing.T, horizon, warmup, threshold, period float64) {
		o := Options{Horizon: horizon, Warmup: warmup}
		if threshold != 0 {
			o.Shedding = &SheddingConfig{Threshold: threshold, Period: period}
		}
		if err := o.validate(c); err != nil {
			return
		}
		if !(o.Horizon > 0) || math.IsInf(o.Horizon, 0) {
			t.Errorf("horizon %g accepted, want finite and positive", o.Horizon)
		}
		if !(o.Warmup >= 0 && o.Warmup < o.Horizon) {
			t.Errorf("warmup %g accepted for horizon %g, want it in [0, horizon)", o.Warmup, o.Horizon)
		}
		if sc := o.Shedding; sc != nil {
			if !(sc.Threshold > 0 && sc.Threshold <= 1) {
				t.Errorf("shedding threshold %g accepted, want it in (0, 1]", sc.Threshold)
			}
			if !(sc.Period > 0) || math.IsInf(sc.Period, 0) {
				t.Errorf("shedding period %g accepted, want finite and positive", sc.Period)
			}
		}
	})
}
