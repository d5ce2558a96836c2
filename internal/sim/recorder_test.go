package sim

import (
	"bytes"
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/obs"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/queueing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata golden fixtures from the current output")

// failureCluster is a two-class preemptive tier that, with breakdowns and
// tight deadlines layered on, exercises every recorder hook: preemption (by
// priority and by breakdown), timeout, backoff, resume, abandon, exit.
func failureCluster() *cluster.Cluster {
	return oneTier(2, 1, queueing.PreemptiveResume,
		[]cluster.Class{{Name: "hi", Lambda: 0.4}, {Name: "lo", Lambda: 0.5}},
		[]queueing.Demand{{Work: 1, CV2: 1}, {Work: 1.5, CV2: 2}})
}

func failureOptions(rec *trace.Recorder) Options {
	return Options{
		Horizon:      1500,
		Warmup:       ZeroWarmup,
		Replications: 1,
		Seed:         11,
		Recorder:     rec,
		Probe:        &Probe{Period: 10},
		Failures:     []*FailureConfig{{MTBF: 40, MTTR: 4}},
		Deadlines: []*DeadlineConfig{
			nil,
			{Deadline: 12, MaxRetries: 2, RetryBackoff: 2},
		},
	}
}

// TestSpanAccountingProperty is the span-accounting property test: across a
// failure-enabled run every closed span's queue+service+preempted+backoff
// components are non-negative, sum exactly (bit-for-bit) to Sojourn(), and
// agree with the wall-clock End-Arrival up to float accumulation dust; the
// recorder's outcome counts must match the simulator's own event counters.
func TestSpanAccountingProperty(t *testing.T) {
	rec := trace.NewRecorder(1 << 17) // big enough that nothing is dropped
	res := run(t, failureCluster(), failureOptions(rec))

	spans := rec.Spans()
	if len(spans) < 500 {
		t.Fatalf("only %d spans closed; the scenario is too quiet", len(spans))
	}
	if rec.EventsDropped() != 0 {
		t.Fatalf("ring overflow (%d events): grow the capacity", rec.EventsDropped())
	}
	if rec.Unmatched() != 0 {
		t.Fatalf("recorder saw %d events for unknown jobs: hook mismatch", rec.Unmatched())
	}

	var sawPreempted, sawBackoff bool
	for _, sp := range spans {
		if sp.Queue < 0 || sp.Service < 0 || sp.Preempted < 0 || sp.Backoff < 0 {
			t.Fatalf("negative component in span %+v", sp)
		}
		// The decomposition is exact BY CONSTRUCTION (Sojourn is defined as
		// this fixed-order sum); a tolerance would hide real drift. floateq
		// exempts _test.go files, so no waiver is needed.
		if sp.Sojourn() != sp.Queue+sp.Service+sp.Preempted+sp.Backoff {
			t.Fatalf("span components do not sum to sojourn: %+v", sp)
		}
		wall := sp.End - sp.Arrival
		if math.Abs(sp.Sojourn()-wall) > 1e-6*math.Max(1, wall) {
			t.Fatalf("sojourn %g disagrees with wall clock %g for span %+v",
				sp.Sojourn(), wall, sp)
		}
		if sp.Outcome == trace.OutcomeCompleted && sp.Service == 0 {
			t.Fatalf("completed span with zero service time: %+v", sp)
		}
		sawPreempted = sawPreempted || sp.Preempted > 0
		sawBackoff = sawBackoff || sp.Backoff > 0
	}
	if !sawPreempted || !sawBackoff {
		t.Errorf("scenario never exercised preempted=%v / backoff=%v components",
			sawPreempted, sawBackoff)
	}

	// The recorder's view must agree with the independent event counters.
	var completed, abandoned int64
	for _, b := range rec.Breakdowns() {
		completed += b.Completed
		abandoned += b.Abandoned
	}
	if got := res.EventCounts[traceExit]; completed != got {
		t.Errorf("recorder completed %d vs simulator exits %d", completed, got)
	}
	if got := res.EventCounts[traceAbandon]; abandoned != got {
		t.Errorf("recorder abandoned %d vs simulator abandons %d", abandoned, got)
	}
}

// TestRecorderDoesNotPerturbResults pins the observer-effect contract: a
// run with the flight recorder attached produces bit-identical Results to
// the same run without it (the recorder consumes no RNG and touches no
// simulator state).
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	quantiles := []float64{0.9}
	opts := failureOptions(nil)
	opts.Quantiles = quantiles

	plain := run(t, failureCluster(), opts)

	opts.Recorder = trace.NewRecorder(0)
	w, err := window.NewSet(window.Config{Width: 100}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts.Windows = w
	observed := run(t, failureCluster(), opts)

	if a, b := hashResult(plain, quantiles), hashResult(observed, quantiles); a != b {
		t.Errorf("recorder perturbed the Result: %s vs %s", a, b)
	}
}

// TestRecorderLiveReaders steps a replication with the recorder and probe
// attached while a second goroutine polls obs.Mux's /trace and the
// recorder's Breakdowns, as a live dashboard would. After every AdvanceTo
// the recorder must hold exactly the closed run's event stream up to that
// time, so AdvanceTo leaves nothing in the tap's batch, and so must a
// probe sample and Run; after a bare ProcessNextEvent it may trail by at
// most 255 events, and its stream must still be a prefix of the closed
// run's.
func TestRecorderLiveReaders(t *testing.T) {
	options := func(rec *trace.Recorder) Options {
		o := failureOptions(rec)
		o.Horizon = 1495 // past the last probe sample, so Run must flush
		return o
	}
	closedRec := trace.NewRecorder(1 << 17)
	run(t, failureCluster(), options(closedRec))
	closed := closedRec.Events()
	if closedRec.EventsDropped() != 0 || len(closed) < 1000 {
		t.Fatalf("closed run recorded %d events, dropped %d", len(closed), closedRec.EventsDropped())
	}
	upTo := func(t float64) int { // length of the closed stream's prefix with T ≤ t
		n, _ := slices.BinarySearchFunc(closed, t, func(e trace.Event, t float64) int {
			if e.T <= t {
				return -1
			}
			return 1
		})
		return n
	}

	rec := trace.NewRecorder(1 << 17)
	opts := options(rec)
	rep, err := NewReplication(failureCluster(), opts, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mux := obs.Mux(obs.NewRegistry(), rec)
	stop, polled := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest("GET", "/trace", nil))
			if w.Code != 200 {
				t.Errorf("/trace answered %d", w.Code)
			}
			rec.Breakdowns()
			if i == 0 {
				close(polled)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-polled

	// check requires the recorder to hold a prefix of the closed run's
	// stream, between minLen and maxLen events long.
	check := func(at string, minLen, maxLen int) {
		got := rec.Events()
		if len(got) < minLen || len(got) > maxLen || !slices.Equal(got, closed[:len(got)]) {
			t.Fatalf("%s (now %g): recorder holds %d events, want a prefix of the closed run's of %d to %d",
				at, rep.Now(), len(got), minLen, maxLen)
		}
	}
	const step = 7.3 // not a multiple of the probe period
	target := 0.0
	for ; target < opts.Horizon/2; target += step {
		rep.AdvanceTo(target)
		check("AdvanceTo", upTo(target), upTo(target))
	}
	samples := 0
	for i := 0; i < 600 && rep.ProcessNextEvent(); i++ {
		// Events at exactly Now() may still be pending, so the lag is
		// counted against the stream strictly before it. A probe sample
		// (at multiples of the period) flushes the batch.
		lag := 255
		if math.Mod(rep.Now(), opts.Probe.Period) == 0 {
			lag = 0
			samples++
		}
		check("ProcessNextEvent", upTo(math.Nextafter(rep.Now(), 0))-lag, upTo(rep.Now()))
	}
	if samples == 0 {
		t.Fatal("no probe sample fell among the bare ProcessNextEvent steps")
	}
	for target = rep.Now(); target < 0.75*opts.Horizon; target += step {
		rep.AdvanceTo(target)
		check("AdvanceTo", upTo(target), upTo(target))
	}
	rep.Run()
	check("Run", len(closed), len(closed))
	close(stop)
	wg.Wait()
	if _, err := rep.Result(); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Breakdowns(), closedRec.Breakdowns(); !slices.Equal(got, want) {
		t.Errorf("breakdowns differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestRecorderRequiresSingleReplication mirrors the Trace contract.
func TestRecorderRequiresSingleReplication(t *testing.T) {
	_, err := Run(regressionCluster(), Options{
		Horizon: 100, Replications: 2, Recorder: trace.NewRecorder(0),
	})
	if err == nil {
		t.Fatal("recorder with 2 replications accepted")
	}
}

// TestWindowDimensionsValidated rejects a Set sized for the wrong cluster.
func TestWindowDimensionsValidated(t *testing.T) {
	w, err := window.NewSet(window.Config{Width: 50}, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(regressionCluster(), Options{Horizon: 100, Windows: w}); err == nil {
		t.Fatal("mis-sized window set accepted")
	}
}

// TestWindowSensorsTrackModel: on a steady M/M/1 the windowed estimators
// must track the true arrival rate, the analytical mean response, and the
// sampled utilization.
func TestWindowSensorsTrackModel(t *testing.T) {
	c := oneTier(1, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.6}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	w, err := window.NewSet(window.Config{Width: 1000, Buckets: 20}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 8000.0
	run(t, c, Options{
		Horizon: horizon, Replications: 1, Seed: 5,
		Windows: w, Probe: &Probe{Period: 5},
	})

	cs := w.Class(horizon, 0)
	if relErr(cs.Rate, 0.6) > 0.15 {
		t.Errorf("window λ̂ = %g, true λ = 0.6", cs.Rate)
	}
	// M/M/1: E[T] = 1/(μ−λ) = 2.5.
	if relErr(cs.MeanSojourn, 2.5) > 0.25 {
		t.Errorf("window mean sojourn = %g, model 2.5", cs.MeanSojourn)
	}
	if cs.TailSojourn <= cs.MeanSojourn {
		t.Errorf("p99 %g not above the mean %g", cs.TailSojourn, cs.MeanSojourn)
	}
	if got := w.Utilization(horizon, 0); math.Abs(got-0.6) > 0.1 {
		t.Errorf("window utilization = %g, model 0.6", got)
	}
}

// TestChromeTraceGolden pins the Chrome trace-event export bit-for-bit on a
// small deterministic run. Regenerate with -update-golden after deliberate
// format changes.
func TestChromeTraceGolden(t *testing.T) {
	rec := trace.NewRecorder(0)
	classes := []cluster.Class{{Name: "hi", Lambda: 0.3}, {Name: "lo", Lambda: 0.4}}
	demands := []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1.5, CV2: 2}}
	c := oneTier(1, 1, queueing.PreemptiveResume, classes, demands)
	run(t, c, Options{
		Horizon: 30, Warmup: ZeroWarmup, Replications: 1, Seed: 3, Recorder: rec,
	})

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestChromeTraceGolden -update-golden ./internal/sim` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from the golden fixture (len %d vs %d); "+
			"regenerate with -update-golden ONLY for deliberate format changes",
			buf.Len(), len(want))
	}
}
