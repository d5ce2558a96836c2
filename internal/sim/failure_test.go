package sim

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

func TestFailureOptionValidation(t *testing.T) {
	c := regressionCluster() // 1 tier, 2 classes
	base := Options{Horizon: 100, Replications: 1, Seed: 1}

	cases := map[string]func(*Options){
		"failure count mismatch": func(o *Options) {
			o.Failures = []*FailureConfig{{MTBF: 10, MTTR: 1}, {MTBF: 10, MTTR: 1}}
		},
		"zero MTBF": func(o *Options) {
			o.Failures = []*FailureConfig{{MTBF: 0, MTTR: 1}}
		},
		"negative MTTR": func(o *Options) {
			o.Failures = []*FailureConfig{{MTBF: 10, MTTR: -1}}
		},
		"NaN MTBF": func(o *Options) {
			o.Failures = []*FailureConfig{{MTBF: math.NaN(), MTTR: 1}}
		},
		"infinite MTTR": func(o *Options) {
			o.Failures = []*FailureConfig{{MTBF: 10, MTTR: math.Inf(1)}}
		},
		"sleep and failures on one tier": func(o *Options) {
			o.Failures = []*FailureConfig{{MTBF: 10, MTTR: 1}}
			o.Sleep = []*SleepConfig{{Setup: queueing.NewExponential(1)}}
		},
		"deadline count mismatch": func(o *Options) {
			o.Deadlines = []*DeadlineConfig{{Deadline: 5}}
		},
		"zero deadline": func(o *Options) {
			o.Deadlines = []*DeadlineConfig{{Deadline: 0}, nil}
		},
		"negative retry budget": func(o *Options) {
			o.Deadlines = []*DeadlineConfig{{Deadline: 5, MaxRetries: -1}, nil}
		},
		"negative backoff": func(o *Options) {
			o.Deadlines = []*DeadlineConfig{{Deadline: 5, RetryBackoff: -1}, nil}
		},
		"shedding threshold zero": func(o *Options) {
			o.Shedding = &SheddingConfig{Threshold: 0, Period: 10}
		},
		"shedding threshold above one": func(o *Options) {
			o.Shedding = &SheddingConfig{Threshold: 1.5, Period: 10}
		},
		"shedding period zero": func(o *Options) {
			o.Shedding = &SheddingConfig{Threshold: 0.8}
		},
	}
	for name, mutate := range cases {
		o := base
		mutate(&o)
		if _, err := Run(c, o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A fully specified valid combination must run.
	o := base
	o.Failures = []*FailureConfig{{MTBF: 50, MTTR: 5}}
	o.Deadlines = []*DeadlineConfig{{Deadline: 20, MaxRetries: 2, RetryBackoff: 1}, nil}
	o.Shedding = &SheddingConfig{Threshold: 0.9, Period: 10}
	if _, err := Run(c, o); err != nil {
		t.Errorf("valid failure options rejected: %v", err)
	}
}

// TestBreakdownsMatchEffectiveCapacityMMc cross-validates the simulator's
// explicit breakdown/repair injection against the analytic availability-
// weighted capacity approximation in its regime of validity: repairs fast
// relative to the service time (fast-switching), where a server that is up a
// fraction A of the time is well approximated by a server of speed·A.
func TestBreakdownsMatchEffectiveCapacityMMc(t *testing.T) {
	// M/M/2, λ=0.9, μ=1 per server; MTBF=18, MTTR=2 ⇒ A=0.9.
	c := oneTier(2, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.9}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	fc := &FailureConfig{MTBF: 18, MTTR: 2}
	res := run(t, c, Options{
		Horizon: 60000, Replications: 5, Seed: 6,
		Failures: []*FailureConfig{fc},
		Probe:    &Probe{Period: 100},
	})

	pred, err := queueing.MMcWithBreakdowns(0.9, 1, 2, fc.Availability())
	if err != nil {
		t.Fatal(err)
	}
	if relErr(res.Delay[0].Mean, pred.MeanResponse()) > 0.1 {
		t.Errorf("degraded delay = %v, effective-capacity M/M/c predicts %g",
			res.Delay[0], pred.MeanResponse())
	}

	// Breakdowns must make things strictly worse than the nominal queue.
	nominal, _ := queueing.NewMMc(0.9, 1, 2)
	if !(res.Delay[0].Mean > nominal.MeanResponse()) {
		t.Errorf("degraded delay %g not above nominal M/M/2 response %g",
			res.Delay[0].Mean, nominal.MeanResponse())
	}
	if res.EventCounts[traceBreakdown] == 0 || res.EventCounts[traceRepair] == 0 {
		t.Errorf("no breakdown/repair events counted: %v", res.EventCounts)
	}
	// Nothing times out, so all arrivals complete: goodput ≈ λ.
	if relErr(res.Goodput[0].Mean, 0.9) > 0.05 {
		t.Errorf("goodput = %v, want ≈ λ = 0.9", res.Goodput[0])
	}
}

// TestFailureFreeNilConfigsMatchUnset pins the zero-value-means-off contract:
// enabling the subsystems with all-nil per-tier/per-class entries leaves every
// measured quantity identical to a run without the options set at all.
func TestFailureFreeNilConfigsMatchUnset(t *testing.T) {
	c := regressionCluster()
	base := Options{Horizon: 2000, Replications: 3, Seed: 9}
	plain, err := Run(c, base)
	if err != nil {
		t.Fatal(err)
	}
	nils := base
	nils.Failures = []*FailureConfig{nil}
	nils.Deadlines = []*DeadlineConfig{nil, nil}
	res, err := Run(c, nils)
	if err != nil {
		t.Fatal(err)
	}
	for k := range plain.Delay {
		if res.Delay[k] != plain.Delay[k] {
			t.Errorf("class %d delay %+v != unset %+v", k, res.Delay[k], plain.Delay[k])
		}
		if res.Completed[k] != plain.Completed[k] {
			t.Errorf("class %d completions %d != unset %d", k, res.Completed[k], plain.Completed[k])
		}
		if res.Timeouts[k] != 0 || res.Retries[k] != 0 || res.Abandoned[k] != 0 || res.Shed[k] != 0 {
			t.Errorf("class %d degraded-mode counters nonzero with nil configs", k)
		}
	}
	if res.TotalPower != plain.TotalPower {
		t.Errorf("power %+v != unset %+v", res.TotalPower, plain.TotalPower)
	}
}

// hashFailureResult extends hashResult with the degraded-mode outputs so the
// determinism test below pins the new fields too.
func hashFailureResult(res *Result, quantiles []float64) string {
	var sb strings.Builder
	sb.WriteString(hashResult(res, quantiles))
	for k := range res.Goodput {
		sb.WriteString(strconv.FormatFloat(res.Goodput[k].Mean, 'x', -1, 64))
		fmt.Fprintf(&sb, ",t%d,r%d,a%d,s%d;",
			res.Timeouts[k], res.Retries[k], res.Abandoned[k], res.Shed[k])
	}
	return sb.String()
}

func TestFailureResultIdenticalAcrossGOMAXPROCS(t *testing.T) {
	classes := []cluster.Class{{Name: "hi", Lambda: 0.3}, {Name: "lo", Lambda: 0.4}}
	demands := []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1.5, CV2: 2}}
	c := oneTier(2, 1, queueing.NonPreemptive, classes, demands)
	quantiles := []float64{0.9}
	opts := Options{
		Horizon: 3000, Replications: 6, Seed: 13, Quantiles: quantiles,
		Probe:     &Probe{Period: 10},
		Failures:  []*FailureConfig{{MTBF: 40, MTTR: 4}},
		Deadlines: []*DeadlineConfig{{Deadline: 25, MaxRetries: 2, RetryBackoff: 0.5}, {Deadline: 15}},
		Shedding:  &SheddingConfig{Threshold: 0.95, Period: 20},
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	hashes := make(map[int]string)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(c, opts)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		hashes[procs] = hashFailureResult(res, quantiles)
	}
	for _, procs := range []int{2, 4} {
		if hashes[procs] != hashes[1] {
			t.Errorf("failure-mode Result differs between GOMAXPROCS=1 and %d", procs)
		}
	}
}

// TestTimeoutAccounting pins the pipeline's conservation law: every timeout
// is followed by exactly one retry or one abandonment.
func TestTimeoutAccounting(t *testing.T) {
	c := regressionCluster()
	res := run(t, c, Options{
		Horizon: 20000, Replications: 3, Seed: 17,
		// Tight deadlines against a queue at ρ=0.65: plenty of timeouts.
		Deadlines: []*DeadlineConfig{
			{Deadline: 2, MaxRetries: 3, RetryBackoff: 0.5},
			{Deadline: 1.5, MaxRetries: 0},
		},
	})
	for k := range res.Timeouts {
		if res.Timeouts[k] == 0 {
			t.Errorf("class %d: no timeouts under a tight deadline", k)
		}
		if res.Timeouts[k] != res.Retries[k]+res.Abandoned[k] {
			t.Errorf("class %d: %d timeouts != %d retries + %d abandoned",
				k, res.Timeouts[k], res.Retries[k], res.Abandoned[k])
		}
	}
	// Class 1 has no retry budget: every timeout abandons.
	if res.Retries[1] != 0 || res.Abandoned[1] != res.Timeouts[1] {
		t.Errorf("MaxRetries=0 class retried %d times, abandoned %d of %d timeouts",
			res.Retries[1], res.Abandoned[1], res.Timeouts[1])
	}
	// Abandonment costs goodput: class 1's completion rate drops below λ.
	if !(res.Goodput[1].Mean < 0.35) {
		t.Errorf("class 1 goodput %v not reduced below λ=0.35 by abandonment", res.Goodput[1])
	}
}

func TestLooseDeadlineNeverFires(t *testing.T) {
	c := regressionCluster()
	base := Options{Horizon: 5000, Replications: 2, Seed: 19}
	plain, err := Run(c, base)
	if err != nil {
		t.Fatal(err)
	}
	loose := base
	loose.Deadlines = []*DeadlineConfig{{Deadline: 1e6, MaxRetries: 1}, {Deadline: 1e6}}
	res, err := Run(c, loose)
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Timeouts {
		if res.Timeouts[k] != 0 || res.Retries[k] != 0 || res.Abandoned[k] != 0 {
			t.Errorf("class %d: loose deadline fired (%d/%d/%d)",
				k, res.Timeouts[k], res.Retries[k], res.Abandoned[k])
		}
		// Timeout events that never fire must not disturb the sample path.
		if res.Delay[k].Mean != plain.Delay[k].Mean {
			t.Errorf("class %d delay %g != unset %g under a never-firing deadline",
				k, res.Delay[k].Mean, plain.Delay[k].Mean)
		}
	}
}

// TestSheddingDropsLowestClassFirst overloads a two-class station and checks
// that admission control refuses only bronze traffic: class 0 is never shed,
// and relief shows up as bronze shed counts plus a finite gold delay.
func TestSheddingDropsLowestClassFirst(t *testing.T) {
	// ρ ≈ 1.3 without shedding: the queue grows without bound.
	c := oneTier(1, 1, queueing.NonPreemptive,
		[]cluster.Class{{Name: "gold", Lambda: 0.4}, {Name: "bronze", Lambda: 0.9}},
		[]queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 1}})
	res := run(t, c, Options{
		Horizon: 20000, Replications: 3, Seed: 23,
		Shedding: &SheddingConfig{Threshold: 0.9, Period: 50},
		Probe:    &Probe{Period: 100},
	})
	if res.Shed[0] != 0 {
		t.Errorf("class 0 shed %d arrivals; the top class must never be shed", res.Shed[0])
	}
	if res.Shed[1] == 0 {
		t.Error("overloaded run shed no bronze arrivals")
	}
	if res.EventCounts[traceShed] == 0 {
		t.Errorf("no shed events counted: %v", res.EventCounts)
	}
	// With bronze shed the station is left with ρ well below 1; gold's delay
	// stays in the same ballpark as its Cobham value under partial bronze
	// load — loosely, just demand it is small rather than queue-explosion.
	if !(res.Delay[0].Mean < 10) {
		t.Errorf("gold delay %v under shedding; admission control gave no relief", res.Delay[0])
	}
}
