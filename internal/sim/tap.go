package sim

import (
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
)

// The lifecycle tap: every job and station lifecycle event the simulator
// produces goes through one emit call, and the tap fans it out to whichever
// observers are attached — the CSV trace, the per-kind event counters, the
// flight recorder, the window sensors and the probe's in-flight counts. What
// each observer receives is decided by the kind table below, not at the call
// site, so handlers carry one line per event and no observer checks.

// tapKind enumerates the lifecycle events the simulator emits.
type tapKind uint8

const (
	// Counted kinds: each owns the event-counter slot of its own index,
	// reported in Result.EventCounts under its trace name.
	tkArrival tapKind = iota
	tkStart
	tkPreempt
	tkVisitEnd
	tkExit
	tkRetune
	tkSetupBegin
	tkSetupDone
	tkBreakdown
	tkRepair
	tkTimeout
	tkRetry
	tkAbandon
	tkShed
	tkPark
	// Uncounted kinds, which reach only some observers.
	tkShedLevel // admission level changed: CSV only
	tkVictim    // a breakdown interrupted the job's service: recorder preempt only
	tkResume    // a retried job re-enters: recorder only
	tkDropped   // a job found no entry station: recorder exit and in-flight only
	numTapKinds

	// numCounted is the number of counted kinds (the counter array length).
	numCounted = tkShedLevel
)

// winAction is what a kind feeds the window sensors.
type winAction uint8

const (
	winNone    winAction = iota
	winArrival           // an arrival-rate observation
	winSojourn           // a sojourn observation (emit's value)
)

// recNone marks a kind the flight recorder does not see.
const recNone = ^trace.Kind(0)

// tapSpec is one kind's routing: its CSV event name ("" writes no row), its
// recorder kind (recNone for none) with the outcome it closes the span with
// when that kind is an exit, its window action, and its change to the
// class's in-flight count.
type tapSpec struct {
	csv      string
	rec      trace.Kind
	outcome  trace.Outcome
	win      winAction
	inflight int
}

var tapKinds = [numTapKinds]tapSpec{
	tkArrival:    {traceArrival, trace.KindArrival, 0, winArrival, +1},
	tkStart:      {traceStart, trace.KindServiceStart, 0, winNone, 0},
	tkPreempt:    {tracePreempt, trace.KindPreempt, 0, winNone, 0},
	tkVisitEnd:   {traceVisitEnd, trace.KindServiceStop, 0, winNone, 0},
	tkExit:       {traceExit, trace.KindExit, trace.OutcomeCompleted, winSojourn, -1},
	tkRetune:     {traceRetune, recNone, 0, winNone, 0},
	tkSetupBegin: {traceSetupBegin, recNone, 0, winNone, 0},
	tkSetupDone:  {traceSetupDone, recNone, 0, winNone, 0},
	tkBreakdown:  {traceBreakdown, recNone, 0, winNone, 0},
	tkRepair:     {traceRepair, recNone, 0, winNone, 0},
	tkTimeout:    {traceTimeout, trace.KindTimeout, 0, winNone, 0},
	tkRetry:      {traceRetry, trace.KindBackoff, 0, winNone, 0},
	tkAbandon:    {traceAbandon, trace.KindExit, trace.OutcomeAbandoned, winNone, -1},
	tkShed:       {traceShed, recNone, 0, winNone, 0},
	tkPark:       {tracePark, recNone, 0, winNone, 0},
	tkShedLevel:  {traceShedLevel, recNone, 0, winNone, 0},
	tkVictim:     {"", trace.KindPreempt, 0, winNone, 0},
	tkResume:     {"", trace.KindResume, 0, winNone, 0},
	tkDropped:    {"", trace.KindExit, trace.OutcomeDropped, winNone, -1},
}

// recBatch is how many recorder events the tap buffers before handing them
// to the recorder in one Record call, which takes the recorder's lock once.
const recBatch = 256

// tap holds the attached observers. Fields are nil when their observer is
// off; the recorder, the window sensors and the in-flight counts feed from
// the recording replication only, mirroring the probe's timeline: one
// coherent stream, not an interleaving.
type tap struct {
	on       bool // any observer attached: the one guard emit checks
	tr       *traceWriter
	rec      *trace.Recorder
	win      *window.Set
	inflight []int // per class, with a probe on the recording replication
	// recBuf holds recorder events not yet handed over (capacity recBatch,
	// allocated once); flushRecorder empties it.
	recBuf []trace.Event
	// counts tallies the counted kinds; only read with a probe attached.
	counts [numCounted]int64
}

func newTap(o Options, classes int, record bool) tap {
	var t tap
	if o.Trace != nil {
		t.tr = newTraceWriter(o.Trace)
	}
	if record {
		t.rec = o.Recorder
		if t.rec != nil {
			t.recBuf = make([]trace.Event, 0, recBatch)
		}
		t.win = o.Windows
		if o.Probe != nil {
			t.inflight = make([]int, classes)
		}
	}
	t.on = t.tr != nil || o.Probe != nil || t.rec != nil || t.win != nil
	return t
}

// emit reports one lifecycle event: station is -1 for events not tied to a
// station, class -1 for events not tied to a class, jobID 0 for events not
// tied to a job, and value is the kind's CSV payload (see the Trace*
// constants). With no observer attached it costs one predictable branch.
func (s *simulator) emit(k tapKind, now float64, class int, jobID uint64, station int, value float64) {
	if s.tap.on {
		s.tap.fanOut(k, now, class, jobID, station, value)
	}
}

// fanOut delivers one event to every attached observer the kind table
// routes it to.
func (t *tap) fanOut(k tapKind, now float64, class int, jobID uint64, station int, value float64) {
	spec := &tapKinds[k]
	if t.tr != nil && spec.csv != "" {
		t.tr.event(now, spec.csv, class, jobID, station, value)
	}
	if k < numCounted {
		t.counts[k]++
	}
	if t.rec != nil && spec.rec != recNone {
		// The event is filled in place, every field written since the
		// buffer is reused: appending a stack-built Event copied it
		// through a store-forwarding stall, ~5% of the overload profile.
		n := len(t.recBuf)
		t.recBuf = t.recBuf[:n+1]
		e := &t.recBuf[n]
		e.T, e.Job, e.Class, e.Station, e.Kind, e.Value = now, jobID, int32(class), int32(station), spec.rec, 0
		switch spec.rec {
		case trace.KindExit:
			e.Value = float64(spec.outcome)
		case trace.KindBackoff:
			e.Value = value // the attempt number
		}
		if n+1 == recBatch {
			t.flushRecorder()
		}
	}
	if t.win != nil {
		switch spec.win {
		case winArrival:
			t.win.ObserveArrival(now, class)
		case winSojourn:
			t.win.ObserveSojourn(now, class, value)
		}
	}
	if t.inflight != nil && spec.inflight != 0 {
		t.inflight[class] += spec.inflight
	}
}

// flushRecorder hands the buffered recorder events to the recorder in one
// Record call. Besides a full buffer, the flush points are a probe sample,
// the return of Replication.AdvanceTo and Replication.Run, and finish, so
// between them the recorder trails the simulator by at most recBatch-1
// events.
func (t *tap) flushRecorder() {
	if len(t.recBuf) > 0 {
		t.rec.Record(t.recBuf...)
		t.recBuf = t.recBuf[:0]
	}
}
