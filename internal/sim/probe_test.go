package sim

import (
	"math"
	"sync/atomic"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/obs"
	"clusterq/internal/queueing"
)

func probeCluster() *cluster.Cluster {
	return oneTier(2, 1, queueing.NonPreemptive,
		[]cluster.Class{{Name: "a", Lambda: 0.6}, {Name: "b", Lambda: 0.4}},
		[]queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 1}})
}

func TestProbeTimelineSeriesAndUtilization(t *testing.T) {
	c := probeCluster()
	reg := obs.NewRegistry()
	res := run(t, c, Options{
		Horizon: 40000, Replications: 3, Seed: 7,
		Probe: &Probe{Period: 5, Registry: reg},
	})
	tl := res.Timeline
	if tl == nil || tl.Len() == 0 {
		t.Fatal("probe must produce a non-empty timeline")
	}
	want := []string{
		"tier0_queue", "tier0_busy", "tier0_util", "tier0_power",
		"class0_inflight", "class1_inflight", "power_total",
	}
	names := tl.Names()
	if len(names) != len(want) {
		t.Fatalf("series = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("series[%d] = %q, want %q", i, names[i], n)
		}
	}

	// Uniformly sampled utilization must estimate the analytical time
	// average ρ = λ·E[S]/(c·s) = 1.0/2 = 0.5.
	if got := tl.Mean("tier0_util"); math.Abs(got-0.5) > 0.03 {
		t.Fatalf("sampled utilization %g, want ≈ 0.5", got)
	}
	// The sampled power must agree with the time-integrated measurement.
	if got, want := tl.Mean("power_total"), res.TotalPower.Mean; math.Abs(got-want) > 0.05*want {
		t.Fatalf("sampled power %g vs measured %g", got, want)
	}
	// In-flight counts are per class and nonnegative; with λ_a > λ_b class
	// a should carry more jobs on average.
	if a, b := tl.Mean("class0_inflight"), tl.Mean("class1_inflight"); !(a > b) {
		t.Fatalf("inflight means: class0 %g should exceed class1 %g", a, b)
	}
}

func TestProbeEventCountsAndRegistry(t *testing.T) {
	c := probeCluster()
	reg := obs.NewRegistry()
	res := run(t, c, Options{
		Horizon: 5000, Replications: 2, Seed: 11,
		Probe: &Probe{Period: 10, Registry: reg},
	})
	arr := res.EventCounts[traceArrival]
	exits := res.EventCounts[traceExit]
	if arr == 0 || exits == 0 {
		t.Fatalf("event counts empty: %v", res.EventCounts)
	}
	if exits > arr {
		t.Fatalf("exits %d exceed arrivals %d", exits, arr)
	}
	if starts := res.EventCounts[traceStart]; starts < exits {
		t.Fatalf("service starts %d below exits %d", starts, exits)
	}
	// The registry sees the same totals.
	if got := reg.Counter("sim_events_arrival_total", "").Value(); got != arr {
		t.Fatalf("registry arrivals %d, want %d", got, arr)
	}
	if got := reg.Gauge("sim_replications", "").Value(); got != 2 {
		t.Fatalf("registry replications %g, want 2", got)
	}
}

// A nil probe must leave the simulation untouched: identical seeds give
// identical estimates with and without the probe attached, because the probe
// draws no randomness and only observes.
func TestProbeDisabledLeavesResultsIdentical(t *testing.T) {
	c := probeCluster()
	base := Options{Horizon: 8000, Replications: 3, Seed: 42, Quantiles: []float64{0.95}}
	plain := run(t, c, base)

	probed := base
	probed.Probe = &Probe{Period: 7}
	withProbe := run(t, c, probed)

	if plain.Timeline != nil || plain.EventCounts != nil {
		t.Fatal("no probe: Timeline and EventCounts must be nil")
	}
	if withProbe.Timeline == nil {
		t.Fatal("probe attached but no timeline")
	}
	for k := range plain.Delay {
		if plain.Delay[k].Mean != withProbe.Delay[k].Mean {
			t.Fatalf("class %d delay diverged: %g vs %g",
				k, plain.Delay[k].Mean, withProbe.Delay[k].Mean)
		}
		if plain.DelayQuantile[k][0.95] != withProbe.DelayQuantile[k][0.95] {
			t.Fatalf("class %d p95 diverged", k)
		}
	}
	if plain.TotalPower.Mean != withProbe.TotalPower.Mean {
		t.Fatalf("power diverged: %g vs %g", plain.TotalPower.Mean, withProbe.TotalPower.Mean)
	}
	for j := range plain.Tiers {
		if plain.Tiers[j].Utilization.Mean != withProbe.Tiers[j].Utilization.Mean {
			t.Fatalf("tier %d utilization diverged", j)
		}
	}
}

func TestProbeRequiresPositivePeriod(t *testing.T) {
	c := probeCluster()
	_, err := Run(c, Options{Horizon: 100, Probe: &Probe{}})
	if err == nil {
		t.Fatal("zero-period probe must be rejected")
	}
}

// TestProbeSampleLimit: a replication accepts a probe whose period gives
// exactly maxProbeSamples samples over the horizon and rejects one a single
// ulp finer, as well as 1e-9 s over 10^4 s and a subnormal period, whose
// sample count overflows to +Inf. Only construction runs, never the loop.
func TestProbeSampleLimit(t *testing.T) {
	c := probeCluster()
	const horizon = 1024.0
	limit := horizon / maxProbeSamples
	for _, tc := range []struct {
		horizon, period float64
		ok              bool
	}{
		{horizon, limit, true},
		{horizon, math.Nextafter(limit, 0), false},
		{1e4, 1e-9, false},
		{horizon, math.SmallestNonzeroFloat64, false},
	} {
		o := Options{Horizon: tc.horizon, Probe: &Probe{Period: tc.period}}
		if _, err := NewReplication(c, o, 1); (err == nil) != tc.ok {
			t.Errorf("NewReplication with period %g over horizon %g: err = %v, want accepted %v", tc.period, tc.horizon, err, tc.ok)
		}
	}
}

func TestProgressCallbackCountsReplications(t *testing.T) {
	c := probeCluster()
	var calls, last atomic.Int64
	_, err := Run(c, Options{
		Horizon: 500, Replications: 4, Seed: 1,
		Progress: func(done, total int) {
			calls.Add(1)
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
			if done == 4 {
				last.Store(4)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 || last.Load() != 4 {
		t.Fatalf("progress calls = %d (last done %d), want 4 reaching 4", calls.Load(), last.Load())
	}
}
