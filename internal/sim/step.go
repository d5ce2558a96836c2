package sim

import (
	"fmt"

	"clusterq/internal/cluster"
)

// Replication is one simulator replication exposed as a steppable value
// instead of a closed loop: callers pop events one at a time, peek at the
// next event's time, or advance to a chosen simulated time, observing (and
// eventually steering) the system between steps. It is the building block
// the shared-clock orchestrator in internal/sim/multi interleaves, and the
// surface an online controller or co-simulated dispatcher drives mid-run.
//
// A Replication runs the identical engine Run uses — stepping to the horizon
// and calling Result produces bit-for-bit the same Result as Run with
// Replications set to 1 and the same seed (pinned by the step-equivalence
// golden tests). Recorder, Windows, Trace and Probe options all attach; the
// single replication is the recording one.
//
// The zero value is not usable; construct with NewReplication. Methods must
// be called from one goroutine.
type Replication struct {
	s      *simulator
	c      *cluster.Cluster
	o      Options
	res    *Result
	resErr error
	sealed bool
}

// NewReplication validates the options exactly as Run does and builds a
// single stepped replication with the given seed. Replications is forced to
// 1: a stepped value is one replication by construction, which also makes
// the Trace/Recorder single-replication contracts hold automatically. Run
// derives replication r's seed as Options.Seed + r; pass the same sum here
// to reproduce a specific replication of a closed run (Options.Seed itself
// is ignored in favor of the explicit argument).
func NewReplication(c *cluster.Cluster, o Options, seed uint64) (*Replication, error) {
	o.Replications = 1
	o.Progress = nil // meaningless for a caller-driven single replication
	if err := o.validate(c); err != nil {
		return nil, err
	}
	s, err := newSimulator(c, o, seed, true)
	if err != nil {
		return nil, err
	}
	return &Replication{s: s, c: c, o: o}, nil
}

// HasPendingEvents reports whether at least one event remains at or before
// the horizon — whether ProcessNextEvent would do work.
func (r *Replication) HasPendingEvents() bool {
	return !r.sealed && r.s.hasPendingEvents()
}

// PeekNextEventTime returns the earliest scheduled event time without
// advancing the clock; ok is false when the calendar is empty. The returned
// time may exceed the horizon — such an event will never be processed, and
// HasPendingEvents is already false. Dead events are mostly not on the
// calendar: a departure cancelled by preemption, a breakdown, a retune or a
// timeout is removed when it is cancelled, and a timeout whose attempt has
// ended is dropped before it is scheduled. Only a timeout whose attempt
// ends after it was scheduled is still popped, and does nothing.
func (r *Replication) PeekNextEventTime() (float64, bool) {
	return r.s.cal.peekTime()
}

// ProcessNextEvent pops and dispatches exactly one event, reporting whether
// it did. It returns false — leaving the calendar untouched — once no event
// at or before the horizon remains, or after Result sealed the replication.
func (r *Replication) ProcessNextEvent() bool {
	if r.sealed {
		return false
	}
	return r.s.processNextEvent()
}

// AdvanceTo processes every event scheduled at or before min(t, horizon), in
// order, and returns how many it processed; like PeekNextEventTime, it does
// not see dead events taken off the calendar. The clock never exceeds the
// horizon regardless of t.
func (r *Replication) AdvanceTo(t float64) int {
	n := 0
	for {
		et, ok := r.PeekNextEventTime()
		if !ok || et > t || !r.ProcessNextEvent() {
			return n
		}
		n++
	}
}

// Run drains the replication to the horizon — the stepped spelling of the
// closed loop.
func (r *Replication) Run() {
	for r.ProcessNextEvent() {
	}
}

// Now is the current simulated time: the time of the last processed event
// (0 before the first step). It never exceeds the horizon. Dead events taken
// off the calendar are never processed, so Now does not move to their times.
func (r *Replication) Now() float64 { return r.s.cal.now }

// Horizon is the replication's simulated end time.
func (r *Replication) Horizon() float64 { return r.s.horizon }

// Result finalizes the replication: it flushes the trace, surfaces buffered
// trace write errors, and aggregates the single replication exactly as Run
// aggregates many. The first call seals the replication — further stepping
// is refused, because summarizing finalizes measurement state — and the
// outcome is memoized, so Result may be called repeatedly.
func (r *Replication) Result() (*Result, error) {
	if !r.sealed {
		r.sealed = true
		out, err := r.s.finish()
		if err != nil {
			r.resErr = err
		} else {
			r.res = aggregate(r.c, r.o, []repOutput{out})
		}
	}
	if r.resErr != nil {
		return nil, r.resErr
	}
	return r.res, nil
}

// String identifies the replication for diagnostics.
func (r *Replication) String() string {
	return fmt.Sprintf("sim.Replication{now=%g, horizon=%g}", r.Now(), r.Horizon())
}
