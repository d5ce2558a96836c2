package trace_test

import (
	"fmt"
	"sync"
	"testing"

	"clusterq/internal/obs/trace"
	"clusterq/internal/queueing"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// overloadStream is the recorder event stream of a 50-second run of an
// overload-shaped cluster, captured once: three tiers of 64 preemptive-
// resume servers with eight classes at 90% of capacity, with breakdowns and
// deadlines that retry, so the stream holds every kind of event and a live
// set of several hundred open spans.
var overloadStream = sync.OnceValues(func() ([]trace.Event, error) {
	c := workload.Scalable(3, 8, 1)
	for _, t := range c.Tiers {
		t.Servers = 64
		t.Discipline = queueing.PreemptiveResume
	}
	c = workload.CapacityFraction(c, 0.9)
	o := sim.Options{Horizon: 50, Warmup: sim.ZeroWarmup, Replications: 1, Seed: 1}
	for range c.Tiers {
		o.Failures = append(o.Failures, &sim.FailureConfig{MTBF: 500, MTTR: 20})
	}
	for range c.Classes {
		o.Deadlines = append(o.Deadlines, &sim.DeadlineConfig{Deadline: 4, MaxRetries: 2, RetryBackoff: 1})
	}
	o.Recorder = trace.NewRecorder(1 << 17)
	if _, err := sim.Run(c, o); err != nil {
		return nil, err
	}
	if n := o.Recorder.EventsDropped(); n > 0 {
		return nil, fmt.Errorf("capture dropped %d events", n)
	}
	return o.Recorder.Events(), nil
})

// BenchmarkRecord measures the recorder's ingest alone: each op replays the
// captured overload stream through Record in 256-event batches, as the
// simulator's tap hands them over, into a recorder of the default capacity
// that Reset empties first. ns/event is the ingest cost per event; a warm-up
// replay before timing sizes the table and aggregates, so an op allocates
// nothing.
func BenchmarkRecord(b *testing.B) {
	events, err := overloadStream()
	if err != nil {
		b.Fatal(err)
	}
	r := trace.NewRecorder(0)
	replay := func() {
		r.Reset()
		for es := events; len(es) > 0; {
			n := min(len(es), 256)
			r.Record(es[:n]...)
			es = es[n:]
		}
	}
	replay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	b.ReportMetric(float64(len(events)), "events/op")
}
