package sim

// Observability-path benchmarks: the CSV trace writer's buffered win, and
// the event loop with the flight recorder / window sensors enabled. These
// are the numbers results/BENCH_obs.json records; the disabled-path cost is
// covered by the BENCH_sim.json event-loop benchmarks (the recorder adds
// one nil-check branch per hook site when off).

import (
	"fmt"
	"os"
	"testing"

	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/queueing"
)

// BenchmarkTraceWriterBuffered measures one trace row through the buffered
// traceWriter backed by a real file — the cost Options.Trace pays per event.
func BenchmarkTraceWriterBuffered(b *testing.B) {
	f, err := os.CreateTemp(b.TempDir(), "trace*.csv")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	tw := newTraceWriter(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.event(float64(i), traceArrival, 1, uint64(i), -1, 0)
	}
	b.StopTimer()
	tw.flush()
	if err := tw.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTraceWriterUnbuffered is the pre-buffering comparator: one
// fmt.Fprintf — and therefore one file write — per event, the shape the
// traceWriter had before it buffered internally.
func BenchmarkTraceWriterUnbuffered(b *testing.B) {
	f, err := os.CreateTemp(b.TempDir(), "trace*.csv")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fmt.Fprintf(f, "%.9g,%s,%d,%d,%d,%.9g\n",
			float64(i), traceArrival, 1, uint64(i), -1, 0.0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObservedReplication mirrors benchReplication but runs as the
// recording replication so the recorder/window options actually attach.
func benchObservedReplication(b *testing.B, o Options) {
	b.Helper()
	c := benchCluster(queueing.NonPreemptive)
	if err := o.defaults(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newSimulator(c, o, o.Seed+uint64(i), true)
		if err != nil {
			b.Fatal(err)
		}
		s.run()
	}
}

// BenchmarkEventLoopRecorder is BenchmarkEventLoopFCFS with the flight
// recorder enabled: every lifecycle event is buffered by the tap and reaches
// the ring in batches of up to 256, one lock per batch. The ratio to the
// FCFS baseline is the enabled-recorder overhead.
func BenchmarkEventLoopRecorder(b *testing.B) {
	rec := trace.NewRecorder(1 << 16)
	benchObservedReplication(b, Options{
		Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1, Recorder: rec,
	})
}

// BenchmarkEventLoopWindows enables the window sensors (with the probe tick
// that feeds their utilization series) on the same scenario.
func BenchmarkEventLoopWindows(b *testing.B) {
	w, err := window.NewSet(window.Config{Width: 100}, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchObservedReplication(b, Options{
		Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1,
		Windows: w, Probe: &Probe{Period: 10},
	})
}
