package sim_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/queueing"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// BenchmarkObserverFamilies splits what the observers cost on an overload-
// shaped replication by family. The cluster is the one the recorder's
// BenchmarkRecord captures its stream from: three tiers of 64 preemptive-
// resume servers, eight classes at 90% of capacity, breakdowns, and
// deadlines that retry. Each op collects garbage and builds fresh observers
// untimed, then times NewReplication, the event loop and Result over a
// 200 s horizon with a 40 s warm-up, one of eight seeds in turn. The
// sub-benchmarks attach nothing (detached), the probe at a 1 s period, the
// window sensors (10 s wide), the flight recorder, or all three (all); each
// one's time less detached's is that family's cost. Besides the mean
// (ns/op), each reports the median op (p50-ns/op), which a noisy host moves
// less. Run it at -cpu 1:
//
//	go test -run '^$' -bench ObserverFamilies -cpu 1 ./internal/sim
func BenchmarkObserverFamilies(b *testing.B) {
	c := workload.Scalable(3, 8, 1)
	for _, t := range c.Tiers {
		t.Servers = 64
		t.Discipline = queueing.PreemptiveResume
	}
	c = workload.CapacityFraction(c, 0.9)
	base := sim.Options{Horizon: 200, Warmup: 40}
	for range c.Tiers {
		base.Failures = append(base.Failures, &sim.FailureConfig{MTBF: 500, MTTR: 20})
	}
	for range c.Classes {
		base.Deadlines = append(base.Deadlines, &sim.DeadlineConfig{Deadline: 4, MaxRetries: 2, RetryBackoff: 1})
	}
	type family struct{ probe, windows, recorder bool }
	for _, f := range []struct {
		name string
		family
	}{
		{"detached", family{}},
		{"probe", family{probe: true}},
		{"windows", family{windows: true}},
		{"recorder", family{recorder: true}},
		{"all", family{true, true, true}},
	} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			ops := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				o := base
				if f.probe {
					o.Probe = &sim.Probe{Period: 1}
				}
				if f.windows {
					w, err := window.NewSet(window.Config{Width: 10}, len(c.Classes), len(c.Tiers))
					if err != nil {
						b.Fatal(err)
					}
					o.Windows = w
				}
				if f.recorder {
					o.Recorder = trace.NewRecorder(0)
				}
				b.StartTimer()
				start := time.Now()
				rep, err := sim.NewReplication(c, o, uint64(1+i%8))
				if err != nil {
					b.Fatal(err)
				}
				for rep.ProcessNextEvent() {
				}
				if _, err := rep.Result(); err != nil {
					b.Fatal(err)
				}
				ops = append(ops, time.Since(start))
			}
			slices.Sort(ops)
			b.ReportMetric(float64(ops[len(ops)/2].Nanoseconds()), "p50-ns/op")
		})
	}
}
