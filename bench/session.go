package bench

import (
	"errors"
	"strings"
	"time"

	"clusterq/internal/sim"
)

// minOps is the fewest ops a timed run issues, whatever -seconds says: with
// 110 samples the nearest-rank p90 has 11 beyond it, so the p90 op latency
// is always reportable.
const minOps = 110

// session is one timed phase: it decides when to stop, times and checks ops,
// and in a traced run collects the per-layer facts the workloads report.
type session struct {
	maxOps  int     // exact op count when positive (smoke tests)
	seconds float64 // length of the timed phase otherwise
	tr      *tracer // nil in an untraced run
	start   time.Time
	last    time.Time // when more last answered

	plain, traced     []float64 // op latencies (CPU ms), untraced and traced
	attempted, failed int
	g                 *gauge   // untraced runs: slice k runs right before op k
	failures          []string // the first few failure messages

	f facts
}

// facts are what the workloads count in a traced run, beyond the spans.
type facts struct {
	// core (plan): the solves issued directly.
	solves, converged int
	evals             int           // Result.Evals summed over the solves
	alEvals           int           // ... and over the augmented-Lagrangian solves
	alSolve           time.Duration // the time those solves took
	gapPct            []float64     // objective vs pinned reference, per solve

	// control (autoscale): epochs, what the controller did in them, and the
	// outcome of each controlled run.
	epochs, ctlSolves, fallbacks int
	runs, slaMisses              int
	powerW                       float64

	// sim: events processed and jobs completed by the traced replications.
	// serial is set only where the event loop is replayed one replication
	// at a time (validate); elsewhere the sim spans' self time is the loop.
	events, jobs  int64
	reps          int
	serial        time.Duration
	serialBytes   float64
	inflightMean  float64 // jobs in the system, from a probed replication
	inflightPeak  float64
	probeEvents   map[string]int64
	worstModelPct float64 // validate: worst |simulated − model| delay error

	// obs (overload): op latency with observers detached and attached.
	detached, attached []float64
}

// newSession starts a timed phase; an untraced one gauges the host around
// every op.
func newSession(seconds float64, maxOps int, tr *tracer) *session {
	s := &session{seconds: seconds, maxOps: maxOps, tr: tr}
	if tr == nil {
		s.g = &gauge{}
	}
	return s
}

// scaled returns the untraced op latencies scaled by the gauge slices around
// each op; it runs the slice after the last op.
func (s *session) scaled() ([]float64, error) {
	if err := s.g.slice(); err != nil {
		return nil, err
	}
	out := make([]float64, len(s.plain))
	for k, x := range s.plain {
		out[k] = s.g.scale(x, k)
	}
	return out, nil
}

// more reports whether to start another unit of work: an op, or a whole
// plan pass or controlled run. A run with -ops stops at that count. A timed
// run, untraced, first issues minOps ops; then it starts another unit only
// if that unit, taking as long as the last one, would end nearer -seconds
// than stopping now — so a run of 15-second passes stops after one pass,
// not at 30 seconds.
func (s *session) more() bool {
	now := time.Now()
	if s.last.IsZero() {
		s.last = s.start
	}
	unit := now.Sub(s.last)
	s.last = now
	n := len(s.plain)
	if s.maxOps > 0 {
		return n < s.maxOps
	}
	if s.tr == nil && n < minOps {
		return true
	}
	return (now.Sub(s.start) + unit/2).Seconds() < s.seconds
}

// cut reports whether to stop inside a unit of work: a run with -ops has
// issued all of them, or a traced run has used up -seconds. Untraced timed
// runs always finish the unit, so their latency sample is a whole pass.
func (s *session) cut() bool {
	if s.maxOps > 0 {
		return len(s.plain) >= s.maxOps
	}
	return s.tr != nil && time.Since(s.start).Seconds() >= s.seconds
}

// twice runs fn untraced and, in a traced session, once more with the
// tracer. The order alternates with i so that neither copy always runs in
// the other's garbage; comparing the two copies' latencies measures what
// tracing costs.
func (s *session) twice(i int, fn func(tr *tracer)) {
	switch {
	case s.tr == nil:
		fn(nil)
	case i%2 == 0:
		fn(nil)
		fn(s.tr)
	default:
		fn(s.tr)
		fn(nil)
	}
}

// op runs op i once per copy twice asks for.
func (s *session) op(i int, fn func(tr *tracer) (time.Duration, error)) {
	s.twice(i, func(tr *tracer) { s.exec(tr, i, fn) })
}

// exec runs one copy of op i inside an op span: fn returns the CPU time of
// its layer calls and the result of checking their output. A failed op
// still counts its latency, so a failure never flatters the percentiles.
// In an untraced run a gauge slice runs first (see scaled).
func (s *session) exec(tr *tracer, i int, fn func(tr *tracer) (time.Duration, error)) {
	var (
		d                time.Duration
		err, gaugeFailed error
	)
	if tr != nil {
		tr.op = i
	} else if s.g != nil {
		gaugeFailed = s.g.slice()
	}
	tr.call("op", layerBench, func() { d, err = fn(tr) })
	if tr != nil {
		tr.op = -1
		s.traced = append(s.traced, ms(d))
	} else {
		s.plain = append(s.plain, ms(d))
	}
	s.attempted++
	if err = errors.Join(gaugeFailed, err); err != nil {
		s.fail(1, err)
	}
}

// fail marks n attempted ops failed by err: one op whose check failed, or
// all the epochs of a controlled run whose outcome did.
func (s *session) fail(n int, err error) {
	s.failed += n
	if len(s.failures) < 5 {
		s.failures = append(s.failures, err.Error())
	}
}

// probed records the live-set and event-count facts of a replication run
// with a probe attached.
func (s *session) probed(res *sim.Result) {
	tl := res.Timeline
	total := make([]float64, tl.Len())
	for _, name := range tl.Names() {
		if strings.HasSuffix(name, "_inflight") {
			for i, v := range tl.Values(name) {
				total[i] += v
			}
		}
	}
	for _, v := range total {
		s.f.inflightPeak = max(s.f.inflightPeak, v)
	}
	if len(total) > 0 {
		s.f.inflightMean = sum(total) / float64(len(total))
	}
	s.f.probeEvents = res.EventCounts
}

func drain(rep *sim.Replication) int64 {
	var n int64
	for rep.ProcessNextEvent() {
		n++
	}
	return n
}

func completed(res *sim.Result) int64 {
	var n int64
	for _, c := range res.Completed {
		n += c
	}
	return n
}
