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

// benchStation builds a simulator around benchCluster's station, resized to
// the given server count, and swaps in an empty calendar, so a station
// benchmark pops only the departures it schedules itself (no arrival,
// control or probe events).
func benchStation(b *testing.B, servers int, disc queueing.Discipline) (*simulator, *simStation) {
	b.Helper()
	c := benchCluster(disc)
	c.Tiers[0].Servers = servers
	o := Options{Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1}
	if err := o.defaults(); err != nil {
		b.Fatal(err)
	}
	s, err := newSimulator(c, o, o.Seed, false)
	if err != nil {
		b.Fatal(err)
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
// segment), departs, and the low-priority job resumes and departs; the
// preempted run's stale departure is popped and recycled on the way.
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
