package sim

// Event-loop micro-benchmarks with allocation reporting. These are the
// numbers BENCH_sim.json records and CI's bench-smoke job exercises: the
// calendar and event loop must stay allocation-free in steady state (the
// hard gate is TestSteadyStateAllocationsBounded; the benchmarks quantify
// ns/op and B/op alongside).

import (
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

// benchCluster is a two-class, two-tier priority cluster: enough structure to
// exercise routing, priority queueing, and per-tier stats without the cost of
// the full enterprise scenario.
func benchCluster(disc queueing.Discipline) *cluster.Cluster {
	c := oneTier(2, 1, disc,
		[]cluster.Class{{Name: "hi", Lambda: 0.4}, {Name: "lo", Lambda: 0.5}},
		[]queueing.Demand{{Work: 1, CV2: 1}, {Work: 1.2, CV2: 2}})
	return c
}

// benchReplication runs one full replication per iteration — the event loop
// end to end, without Run's aggregation layer.
func benchReplication(b *testing.B, c *cluster.Cluster, o Options) {
	b.Helper()
	if err := o.defaults(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newSimulator(c, o, o.Seed+uint64(i), false)
		if err != nil {
			b.Fatal(err)
		}
		s.run()
	}
}

// BenchmarkEventLoopFCFS measures the pooled event loop on a non-preemptive
// station: ~9k calendar events per iteration (arrival/start/visit/exit).
func BenchmarkEventLoopFCFS(b *testing.B) {
	benchReplication(b, benchCluster(queueing.NonPreemptive),
		Options{Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1})
}

// BenchmarkEventLoopPreemptive adds the cancelled-run path: preemptions
// strand stale departure events whose runs are recycled on pop.
func BenchmarkEventLoopPreemptive(b *testing.B) {
	benchReplication(b, benchCluster(queueing.PreemptiveResume),
		Options{Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1})
}

// BenchmarkEventLoopControlled adds the DVFS control loop: every retune
// cancels and reissues the whole running set.
func BenchmarkEventLoopControlled(b *testing.B) {
	benchReplication(b, benchCluster(queueing.PreemptiveResume), Options{
		Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1,
		Controller: UtilizationPolicy{Target: 0.6}, ControlPeriod: 20,
	})
}

// BenchmarkCalendar isolates the heap itself: schedule/next round-trips over
// a live set of 512 events, the pattern the simulator drives it with. Do not
// change its workload: TestDisabledRecorderOverheadGate runs it as the
// machine-speed calibration probe against recorded baselines.
func BenchmarkCalendar(b *testing.B) {
	const live = 512
	cal := newCalendar()
	rng := NewRNG(7)
	for i := 0; i < live; i++ {
		cal.schedule(rng.Float64()*100, evArrival, 0, nil, 0, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cal.next()
		cal.recycle(e)
		cal.schedule(cal.now+rng.Float64()*10, evArrival, 0, nil, 0, nil)
	}
}
