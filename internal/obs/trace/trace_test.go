package trace

import (
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// ev builds one recorder event; station is -1 for events not tied to a
// station, and value is the kind's payload (Outcome for KindExit, attempt
// number for KindBackoff).
func ev(k Kind, t float64, class int32, job uint64, station int32, value float64) Event {
	return Event{T: t, Kind: k, Class: class, Job: job, Station: station, Value: value}
}

// TestSpanStateMachine walks one job through every state and checks the
// component decomposition is exact.
func TestSpanStateMachine(t *testing.T) {
	r := NewRecorder(0)
	const job = 7

	r.Record(ev(KindArrival, 0, 1, job, -1, 0))                         // queued
	r.Record(ev(KindServiceStart, 2, 1, job, 0, 0))                     // queue += 2
	r.Record(ev(KindPreempt, 5, 1, job, 0, 0))                          // service += 3
	r.Record(ev(KindServiceStart, 9, 1, job, 0, 0))                     // preempted += 4
	r.Record(ev(KindTimeout, 10, 1, job, 0, 0))                         // service += 1
	r.Record(ev(KindBackoff, 10, 1, job, -1, 1))                        // queue += 0
	r.Record(ev(KindResume, 16, 1, job, -1, 0))                         // backoff += 6
	r.Record(ev(KindServiceStart, 18, 1, job, 1, 0))                    // queue += 2
	r.Record(ev(KindServiceStop, 20, 1, job, 1, 0))                     // service += 2
	r.Record(ev(KindExit, 20.5, 1, job, -1, float64(OutcomeCompleted))) // queue += 0.5

	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	check := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	check("Queue", sp.Queue, 4.5)
	check("Service", sp.Service, 6)
	check("Preempted", sp.Preempted, 4)
	check("Backoff", sp.Backoff, 6)
	check("Sojourn", sp.Sojourn(), sp.Queue+sp.Service+sp.Preempted+sp.Backoff)
	check("End-Arrival", sp.End-sp.Arrival, 20.5)
	if sp.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", sp.Attempts)
	}
	if sp.Outcome != OutcomeCompleted {
		t.Errorf("Outcome = %v, want completed", sp.Outcome)
	}
	if r.OpenSpans() != 0 {
		t.Errorf("OpenSpans = %d, want 0", r.OpenSpans())
	}
	if r.Unmatched() != 0 {
		t.Errorf("Unmatched = %d, want 0", r.Unmatched())
	}

	b := r.Breakdown(1)
	if b.Completed != 1 || b.Spans() != 1 {
		t.Errorf("breakdown counts: %+v", b)
	}
	check("breakdown sojourn", b.Sojourn(), sp.Sojourn())
	check("MeanQueue", b.MeanQueue(), 4.5)
	if !math.IsNaN(r.Breakdown(0).MeanSojourn()) {
		t.Errorf("empty class mean should be NaN")
	}
}

// TestRecorderOutcomes checks abandon and drop bookkeeping.
func TestRecorderOutcomes(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(KindArrival, 0, 0, 1, -1, 0))
	r.Record(ev(KindExit, 0, 0, 1, -1, float64(OutcomeDropped))) // admission drop: zero-length span
	r.Record(ev(KindArrival, 1, 0, 2, -1, 0))
	r.Record(ev(KindTimeout, 4, 0, 2, 0, 0))
	r.Record(ev(KindExit, 4, 0, 2, -1, float64(OutcomeAbandoned)))

	b := r.Breakdown(0)
	if b.Dropped != 1 || b.Abandoned != 1 || b.Completed != 0 {
		t.Fatalf("counts: %+v", b)
	}
	spans := r.Spans()
	if spans[0].Sojourn() != 0 {
		t.Errorf("dropped span sojourn = %g, want 0", spans[0].Sojourn())
	}
	if spans[1].Queue != 3 || spans[1].Sojourn() != 3 {
		t.Errorf("abandoned span: %+v", spans[1])
	}
}

// TestEventRingOverwrite checks drop-oldest semantics and the drop counter.
func TestEventRingOverwrite(t *testing.T) {
	r := NewRecorder(1024)
	n := 1100
	for i := 0; i < n; i++ {
		r.Record(ev(KindArrival, float64(i), 0, uint64(i), -1, 0))
	}
	evs := r.Events()
	if len(evs) != 1024 {
		t.Fatalf("len(events) = %d, want 1024", len(evs))
	}
	if evs[0].Job != uint64(n-1024) || evs[len(evs)-1].Job != uint64(n-1) {
		t.Errorf("ring window [%d, %d], want [%d, %d]",
			evs[0].Job, evs[len(evs)-1].Job, n-1024, n-1)
	}
	if got := r.EventsDropped(); got != uint64(n-1024) {
		t.Errorf("EventsDropped = %d, want %d", got, n-1024)
	}
	drained := r.Drain()
	if len(drained) != 1024 {
		t.Fatalf("drain returned %d events", len(drained))
	}
	if len(r.Events()) != 0 {
		t.Errorf("ring not empty after drain")
	}
	if r.OpenSpans() != n {
		t.Errorf("drain must not touch open spans: %d", r.OpenSpans())
	}
}

// TestSpanRingOverwriteKeepsAggregates checks that the per-class aggregate
// counts every closed span after the event ring wraps and after a Drain,
// while Spans returns exactly the closed spans whose arrival is still
// buffered: a span whose arrival the ring has overwritten, or a Drain has
// taken, is gone from Spans even when its exit is still buffered.
func TestSpanRingOverwriteKeepsAggregates(t *testing.T) {
	r := NewRecorder(1024)
	n := 1500
	for i := 0; i < n; i++ {
		r.Record(ev(KindArrival, float64(i), 0, uint64(i), -1, 0))
		r.Record(ev(KindExit, float64(i)+0.5, 0, uint64(i), -1, float64(OutcomeCompleted)))
	}
	jobs := func() (ids []uint64) {
		for _, sp := range r.Spans() {
			if sp.Queue != 0.5 || sp.End != sp.Arrival+0.5 {
				t.Errorf("span %+v, want half a second queued", sp)
			}
			ids = append(ids, sp.Job)
		}
		return ids
	}
	wantJobs := func(at string, first, last int) {
		t.Helper()
		ids := jobs()
		if len(ids) != last-first || (len(ids) > 0 && (ids[0] != uint64(first) || ids[len(ids)-1] != uint64(last-1))) {
			t.Errorf("%s: spans of jobs %v, want %d..%d", at, ids, first, last-1)
		}
	}
	// The ring holds the last 512 arrival-exit pairs.
	wantJobs("wrapped", n-512, n)
	// One more arrival overwrites job n-512's arrival: its exit is still
	// buffered, its span is not.
	r.Record(ev(KindArrival, float64(n), 0, uint64(n), -1, 0))
	wantJobs("arrival overwritten", n-511, n)
	r.Drain()
	wantJobs("drained", 0, 0)
	// Job n arrived before the Drain: its exit closes it and the aggregate
	// counts it, but Spans cannot assemble it.
	r.Record(ev(KindExit, float64(n)+0.5, 0, uint64(n), -1, float64(OutcomeCompleted)))
	wantJobs("closed after drain", 0, 0)
	if got := r.Breakdown(0).Completed; got != int64(n+1) {
		t.Errorf("aggregate completed = %d, want %d", got, n+1)
	}
}

// TestNewRecorderFootprint pins what a default recorder costs to build: its
// event ring and the initial open-span table (its spans and their keys), and
// little else.
func TestNewRecorderFootprint(t *testing.T) {
	const slack = 16 << 10
	want := uint64(defaultCapacity*unsafe.Sizeof(Event{}) + openInitial*(unsafe.Sizeof(openSpan{})+unsafe.Sizeof(slotKey{})))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(0)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if got := after.TotalAlloc - before.TotalAlloc; got > want+slack {
		t.Errorf("NewRecorder(0) allocated %d B, want at most %d B (event ring and open-span table) + %d B", got, want, slack)
	}
}

// TestRecordBatchAllocatesNothing: once a recorder has seen a batch's
// classes, recording a 256-event batch allocates nothing.
func TestRecordBatchAllocatesNothing(t *testing.T) {
	r := NewRecorder(0)
	var batch []Event
	for job := uint64(0); job < 64; job++ {
		c, now := int32(job%3), float64(job)
		batch = append(batch,
			ev(KindArrival, now, c, job, -1, 0),
			ev(KindServiceStart, now+0.25, c, job, 0, 0),
			ev(KindServiceStop, now+0.5, c, job, 0, 0),
			ev(KindExit, now+0.75, c, job, -1, float64(OutcomeCompleted)))
	}
	if got := testing.AllocsPerRun(100, func() { r.Record(batch...) }); got != 0 {
		t.Errorf("Record of a %d-event batch: %v allocations, want 0", len(batch), got)
	}
}

// TestRecorderNilSafe calls every exported method on a nil recorder.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	for k := Kind(0); k < numKinds; k++ {
		r.Record(ev(k, 0, 0, 1, -1, 0))
	}
	if r.Events() != nil || r.Drain() != nil || r.Spans() != nil || r.Breakdowns() != nil {
		t.Error("nil recorder returned non-nil data")
	}
	if r.EventsDropped() != 0 || r.OpenSpans() != 0 || r.Unmatched() != 0 {
		t.Error("nil recorder returned nonzero counters")
	}
	if b := r.Breakdown(3); b.Class != 3 || b.Spans() != 0 {
		t.Errorf("nil Breakdown(3) = %+v", b)
	}
	r.Reset()
}

// TestRecorderReset returns the recorder to a fresh state.
func TestRecorderReset(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(KindArrival, 0, 0, 1, -1, 0))
	r.Record(ev(KindArrival, 0, 1, 2, -1, 0))
	r.Record(ev(KindExit, 1, 1, 2, -1, float64(OutcomeCompleted)))
	r.Reset()
	if len(r.Events()) != 0 || len(r.Spans()) != 0 || len(r.Breakdowns()) != 0 || r.OpenSpans() != 0 {
		t.Error("Reset left state behind")
	}
	// Recycled open-span records must come back zeroed.
	r.Record(ev(KindArrival, 5, 0, 3, -1, 0))
	r.Record(ev(KindExit, 7, 0, 3, -1, float64(OutcomeCompleted)))
	sp := r.Spans()[0]
	if sp.Queue != 2 || sp.Service != 0 || sp.Attempts != 0 {
		t.Errorf("recycled span leaked state: %+v", sp)
	}
}

// TestUnmatchedEvents counts events for unknown jobs without panicking.
func TestUnmatchedEvents(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(KindServiceStart, 1, 0, 99, 0, 0))
	r.Record(ev(KindExit, 2, 0, 99, -1, float64(OutcomeCompleted)))
	if got := r.Unmatched(); got != 2 {
		t.Errorf("Unmatched = %d, want 2", got)
	}
	if len(r.Spans()) != 0 {
		t.Errorf("unknown job must not close a span")
	}
}

func TestKindAndOutcomeStrings(t *testing.T) {
	if KindArrival.String() != "arrival" || KindExit.String() != "exit" {
		t.Error("kind names drifted")
	}
	if OutcomeAbandoned.String() != "abandoned" {
		t.Error("outcome names drifted")
	}
	if Kind(200).String() == "" || Outcome(200).String() == "" {
		t.Error("out-of-range names empty")
	}
}
