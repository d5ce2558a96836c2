package sim

// Event-loop micro-benchmarks with allocation reporting. These are the
// numbers BENCH_sim.json records and CI's bench-smoke job exercises: the
// calendar and event loop must stay allocation-free in steady state (the
// hard gate is TestSteadyStateAllocationsBounded; the benchmarks quantify
// ns/op and B/op alongside).

import (
	"fmt"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
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

// BenchmarkEventLoopPreemptive adds the cancelled-run path: each preemption
// removes the victim's departure from the heap in place and frees its run.
func BenchmarkEventLoopPreemptive(b *testing.B) {
	benchReplication(b, benchCluster(queueing.PreemptiveResume),
		Options{Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1})
}

// BenchmarkEventLoopControlled adds the DVFS control loop: every retune
// removes the whole running set's departures from the heap and reschedules
// them at the new speed.
func BenchmarkEventLoopControlled(b *testing.B) {
	benchReplication(b, benchCluster(queueing.PreemptiveResume), Options{
		Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1,
		Controller: UtilizationPolicy{Target: 0.6}, ControlPeriod: 20,
	})
}

// overloadCluster is the shape of the benchmark's overload workload: three
// preemptive-resume tiers of 64 servers at speed 4 under eight classes with
// work from 0.8 to 1.4, every class at the same rate, loaded to 90% of
// capacity. Hundreds of jobs are in flight, so preemptions are frequent.
func overloadCluster() *cluster.Cluster {
	const tiers, classes, servers, speed, load = 3, 8, 64, 4.0, 0.9
	pm, err := power.NewPowerLaw(100, 0.4, 3)
	if err != nil {
		panic(err)
	}
	demands := make([]queueing.Demand, classes)
	var totalWork float64
	for k := range demands {
		demands[k] = queueing.Demand{Work: 0.8 + 0.6*float64(k)/(classes-1), CV2: 1}
		totalWork += demands[k].Work
	}
	c := &cluster.Cluster{}
	for j := 0; j < tiers; j++ {
		c.Tiers = append(c.Tiers, &cluster.Tier{
			Name: fmt.Sprintf("tier%d", j), Servers: servers, Speed: speed,
			Discipline: queueing.PreemptiveResume, Power: pm,
			Demands: append([]queueing.Demand(nil), demands...),
		})
	}
	for k := 0; k < classes; k++ {
		c.Classes = append(c.Classes, cluster.Class{
			Name: fmt.Sprintf("class%d", k), Lambda: load * speed * servers / totalWork,
		})
	}
	return c
}

// BenchmarkEventLoopDeadlines is the overload workload's event loop without
// observers: preemption, breakdowns, and deadlines with retries. Most
// preempted departures and most armed timeouts never fire, so it measures
// how cheaply the calendar keeps them out of the heap.
func BenchmarkEventLoopDeadlines(b *testing.B) {
	c := overloadCluster()
	o := Options{Horizon: 200, Warmup: 40, Replications: 1, Seed: 1}
	for range c.Tiers {
		o.Failures = append(o.Failures, &FailureConfig{MTBF: 500, MTTR: 20})
	}
	for range c.Classes {
		o.Deadlines = append(o.Deadlines, &DeadlineConfig{Deadline: 4, MaxRetries: 2, RetryBackoff: 1})
	}
	benchReplication(b, c, o)
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

// BenchmarkCalendarHeld is BenchmarkCalendar in a handler's order: next →
// schedule → recycle over the same 512 live events, so each schedule fills
// the popped event's slot.
func BenchmarkCalendarHeld(b *testing.B) {
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
		cal.schedule(cal.now+rng.Float64()*10, evArrival, 0, nil, 0, nil)
		cal.recycle(e)
	}
}

// benchStation builds a simulator around benchCluster's station, resized to
// the given server count (see stationSim).
func benchStation(b *testing.B, servers int, disc queueing.Discipline) (*simulator, *simStation) {
	b.Helper()
	c := benchCluster(disc)
	c.Tiers[0].Servers = servers
	return stationSim(b, c)
}

// stationSim builds a simulator around c's first station and swaps in an
// empty calendar, so the caller drives the station directly and pops only
// the departures it schedules itself (no arrival, control or probe events).
func stationSim(tb testing.TB, c *cluster.Cluster) (*simulator, *simStation) {
	tb.Helper()
	o := Options{Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1}
	if err := o.defaults(); err != nil {
		tb.Fatal(err)
	}
	s, err := newSimulator(c, o, o.Seed, false)
	if err != nil {
		tb.Fatal(err)
	}
	s.cal = newCalendar()
	return s, s.stations[0]
}

// benchJob hands out a recycled job of the given class and work, queued at
// now.
func benchJob(s *simulator, class int, work, now float64) *job {
	j := s.allocJob()
	j.class, j.remaining, j.enqueued = class, work, now
	return j
}

// BenchmarkStationDispatch measures one start→departure cycle at one
// station: the service start (run allocation, observeBusy, departure
// schedule), the calendar pop, and the departure handler (bankSegment,
// dropRun, observeBusy, wait accounting, exit).
func BenchmarkStationDispatch(b *testing.B) {
	s, st := benchStation(b, 2, queueing.NonPreemptive)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.startService(st, benchJob(s, i&1, 1, s.cal.now), s.cal.now)
		e := s.cal.next()
		s.handleDeparture(e)
		s.cal.recycle(e)
	}
}

// BenchmarkStationPreempt measures one preempt→resume cycle at a
// single-server preemptive-resume station: a low-priority job starts, a
// high-priority arrival preempts it a quarter of the way in (banking the
// segment and removing the preempted departure from the heap), departs, and
// the low-priority job resumes and departs.
func BenchmarkStationPreempt(b *testing.B) {
	s, st := benchStation(b, 1, queueing.PreemptiveResume)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := s.cal.now
		s.arriveAtStation(st, benchJob(s, 1, 1, now), now)
		s.arriveAtStation(st, benchJob(s, 0, 0.5, now+0.25), now+0.25)
		for !s.cal.empty() {
			e := s.cal.next()
			s.handleDeparture(e)
			s.cal.recycle(e)
		}
	}
}

// benchSink keeps micro-benchmark results live so the compiler cannot
// discard the measured calls.
var benchSink float64

// BenchmarkRNGExp measures one exponential variate: a xoshiro draw and the
// inverse-CDF log, the per-arrival and per-service cost of the Markovian
// streams.
func BenchmarkRNGExp(b *testing.B) {
	r := NewRNG(1)
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += r.Exp(1.5)
	}
	benchSink = sum
}
