// Package trace is clusterq's flight recorder: a fixed-capacity, typed
// ring buffer of job lifecycle events that assembles per-job spans with an
// exact queue/service/preempted/backoff decomposition of every sojourn.
//
// The package follows the observability layer's nil-is-a-no-op contract
// (enforced by the in-tree nilnoop analyzer): every exported pointer-receiver
// method returns immediately on a nil receiver, so instrumented code may call
// hooks unconditionally. The simulator feeds the recorder from its single
// lifecycle tap, whose one guard keeps a detached recorder at a single
// predictable branch per event.
//
// Ingest is batched: Record takes any number of events under one lock, and
// the simulator's tap hands them over 256 at a time, so between flushes the
// recorder can trail the simulator by at most 255 events (see
// sim.Options.Recorder for the flush points).
//
// Memory is bounded by construction: events live in a fixed-capacity ring
// that overwrites its oldest entries (counting what was dropped), and open
// spans live inline in an open-addressed table keyed by job id, sized by the
// peak number of jobs in flight. A closed span is folded into its class's
// aggregate and not kept: Spans assembles the closed spans when it is read,
// from the events still in the ring. Per-class aggregates are never dropped —
// they count every closed span, whatever the ring has lost since.
package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Kind identifies a lifecycle event type.
type Kind uint8

const (
	// KindArrival marks a job entering the system (span opens, queueing
	// starts).
	KindArrival Kind = iota
	// KindServiceStart marks a server beginning (or resuming) work on the
	// job at a station.
	KindServiceStart
	// KindServiceStop marks the job completing its service visit at a
	// station and returning to a queue (or exiting).
	KindServiceStop
	// KindPreempt marks the job being forced off a server (priority
	// preemption or server breakdown) with work remaining.
	KindPreempt
	// KindTimeout marks the job's deadline firing while in system.
	KindTimeout
	// KindBackoff marks the job entering retry backoff after a timeout.
	KindBackoff
	// KindResume marks the job re-entering the system after backoff.
	KindResume
	// KindExit marks the job leaving the system; Value carries the Outcome.
	KindExit
	numKinds
)

var kindNames = [numKinds]string{
	"arrival", "service_start", "service_stop", "preempt",
	"timeout", "backoff", "resume", "exit",
}

// String returns the event kind's wire name (stable, used in exports).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Outcome classifies how a span closed.
type Outcome uint8

const (
	// OutcomeCompleted is a normal departure after finishing service.
	OutcomeCompleted Outcome = iota
	// OutcomeAbandoned is a deadline abandonment (retries exhausted or
	// retry disabled).
	OutcomeAbandoned
	// OutcomeDropped is an admission drop (shed at arrival or re-entry).
	OutcomeDropped
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"completed", "abandoned", "dropped"}

// String returns the outcome's wire name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Event is one recorded lifecycle event. Station is -1 for events not tied
// to a station (arrival, backoff, resume, exit). Value is kind-specific:
// the Outcome for KindExit, the attempt number for KindBackoff, otherwise 0.
type Event struct {
	T       float64 // simulated time, seconds
	Job     uint64  // job id (unique within a replication)
	Value   float64 // kind-specific payload
	Class   int32   // job class index
	Station int32   // tier index, or -1
	Kind    Kind
}

// Span is the assembled lifecycle of one job. The four components partition
// the job's time in system by what the job was doing:
//
//	Queue     — waiting in a station queue (or between stations) for a server
//	Service   — actively being served
//	Preempted — forced off a server with work remaining, waiting to resume
//	Backoff   — out of the system between a timeout-triggered retry and
//	            its re-entry
//
// Sojourn() is *defined* as the fixed-order sum of the components, so the
// decomposition is exact by construction; End-Arrival equals that sum up to
// float addition-order dust (the recorder accumulates each component across
// possibly many segments, and float addition is not associative). Tests
// assert the two agree to ~1e-9 relative.
type Span struct {
	Job       uint64
	Arrival   float64 // time the span opened
	End       float64 // time the span closed
	Queue     float64
	Service   float64
	Preempted float64
	Backoff   float64
	Class     int32
	Attempts  int32 // retry re-entries (0 for a first-attempt completion)
	Outcome   Outcome
}

// Sojourn returns the span's total time in system as the fixed-order sum
// Queue + Service + Preempted + Backoff. This is the canonical sojourn:
// the breakdown sums to it exactly, by definition.
func (s Span) Sojourn() float64 {
	return s.Queue + s.Service + s.Preempted + s.Backoff
}

// Breakdown aggregates closed spans of one class: counts by outcome and the
// summed components. Means divide by the total closed-span count.
type Breakdown struct {
	Class     int
	Completed int64
	Abandoned int64
	Dropped   int64
	Queue     float64
	Service   float64
	Preempted float64
	Backoff   float64
}

// Spans returns the total number of closed spans aggregated.
func (b Breakdown) Spans() int64 { return b.Completed + b.Abandoned + b.Dropped }

// Sojourn returns the summed sojourn time (fixed-order component sum).
func (b Breakdown) Sojourn() float64 { return b.Queue + b.Service + b.Preempted + b.Backoff }

func (b Breakdown) mean(sum float64) float64 {
	n := b.Spans()
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MeanQueue returns mean queueing time per closed span (NaN if none).
func (b Breakdown) MeanQueue() float64 { return b.mean(b.Queue) }

// MeanService returns mean service time per closed span (NaN if none).
func (b Breakdown) MeanService() float64 { return b.mean(b.Service) }

// MeanPreempted returns mean preempted time per closed span (NaN if none).
func (b Breakdown) MeanPreempted() float64 { return b.mean(b.Preempted) }

// MeanBackoff returns mean backoff time per closed span (NaN if none).
func (b Breakdown) MeanBackoff() float64 { return b.mean(b.Backoff) }

// MeanSojourn returns mean sojourn time per closed span (NaN if none).
func (b Breakdown) MeanSojourn() float64 { return b.mean(b.Sojourn()) }

// spanState is what an open span's clock is currently charging. It indexes
// the span's accumulators, so its values are 0..3.
type spanState uint8

const (
	stateQueued spanState = iota
	stateService
	statePreempted
	stateBackoff
)

// nextState is the state each non-arrival, non-exit kind switches a span
// to. It covers every uint8, so an unknown kind needs no bounds check and,
// like KindServiceStop, KindTimeout and KindResume, returns the span to
// queued (the zero state).
var nextState = [256]spanState{
	KindServiceStart: stateService,
	KindPreempt:      statePreempted,
	KindBackoff:      stateBackoff,
}

// openSpan tracks one in-flight job in a slot of the open-span table; the
// job id and the slot's occupancy live beside it in spanTable.keys. acc
// holds the queue, service, preempted and backoff time, indexed by
// spanState. fold charges the elapsed time since the last event to the
// current state's accumulator.
type openSpan struct {
	arrival  float64
	lastT    float64
	acc      [4]float64
	class    int32
	attempts int32
	state    spanState
}

func (o *openSpan) fold(t float64) {
	dt := t - o.lastT
	o.lastT = t
	if dt <= 0 {
		return
	}
	o.acc[o.state&3] += dt // state is 0..3; the mask spares a bounds check
}

// slotKey is a slot's job id and whether the slot holds an open span. Any
// uint64 is a valid id, so occupancy needs its own flag.
type slotKey struct {
	job  uint64
	used bool
}

// spanTable is the span state machine: the open spans of the events applied
// so far, in an open-addressed table keyed by job id (linear probing from a
// multiplicative hash, a power-of-two length), and the count of events that
// matched no open span. The probe reads only keys, a dense array beside
// open, so a run of occupied slots stays within a few cache lines. Record
// drives the recorder's own table as events arrive; Spans drives a scratch
// one over the buffered events.
type spanTable struct {
	keys      []slotKey
	open      []openSpan // open[i] is the span of keys[i].job
	n         int        // occupied slots
	shift     uint       // 64 - log2(len(open)): the hash keeps the top bits
	unmatched uint64
}

// openInitial is the open-span table's initial length; the table doubles
// whenever it would pass three quarters full.
const openInitial = 1024

// resize replaces the table with an empty one of n slots (a power of two)
// and re-inserts every open span.
func (t *spanTable) resize(n int) {
	oldKeys, oldOpen := t.keys, t.open
	t.keys = make([]slotKey, n)
	t.open = make([]openSpan, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i, k := range oldKeys {
		if k.used {
			j := t.slot(k.job)
			t.keys[j] = k
			t.open[j] = oldOpen[i]
		}
	}
}

// home is job's preferred slot: Fibonacci hashing, which spreads the
// simulator's sequential ids evenly over the table.
func (t *spanTable) home(job uint64) int {
	return int((job * fibHash) >> t.shift)
}

// fibHash is ⌊2^64/φ⌋, the Fibonacci-hashing multiplier; it is odd, so
// multiplying by it permutes the ids.
const fibHash = 0x9E3779B97F4A7C15

// slot returns the index of job's open span, or of the empty slot where it
// would go. The table is never full, so the probe ends.
func (t *spanTable) slot(job uint64) int {
	keys := t.keys
	mask := len(keys) - 1
	i := t.home(job)
	for keys[i].used && keys[i].job != job {
		i = (i + 1) & mask
	}
	return i
}

// remove empties slot i by backward-shift deletion: each later span in the
// probe run that may move back into the hole does, so no tombstones are
// needed and lookups stay as short as at insertion.
func (t *spanTable) remove(i int) {
	keys := t.keys
	mask := len(keys) - 1
	for j := (i + 1) & mask; keys[j].used; j = (j + 1) & mask {
		// The span at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(keys[j].job))&mask >= (j-i)&mask {
			keys[i] = keys[j]
			t.open[i] = t.open[j]
			i = j
		}
	}
	keys[i] = slotKey{}
	t.n--
}

// apply applies e's transition (see Record). When e closes a span, apply
// returns the span's slot, which the caller reads and then empties with
// remove; otherwise it returns -1.
func (t *spanTable) apply(e *Event) int {
	i := t.slot(e.Job)
	if e.Kind == KindArrival {
		if t.keys[i].used {
			t.unmatched++ // a duplicate id: the stale span is discarded
		} else {
			if 4*(t.n+1) > 3*len(t.open) {
				t.resize(2 * len(t.open))
				i = t.slot(e.Job)
			}
			t.n++
			t.keys[i] = slotKey{job: e.Job, used: true}
		}
		t.open[i] = openSpan{class: e.Class, arrival: e.T, lastT: e.T}
		return -1
	}
	if !t.keys[i].used {
		t.unmatched++
		return -1
	}
	o := &t.open[i]
	o.fold(e.T)
	if e.Kind == KindExit {
		return i
	}
	o.state = nextState[e.Kind]
	if o.state == stateBackoff {
		o.attempts++
	}
	return -1
}

// span returns the closed span in slot i, which the exit e closes.
func (t *spanTable) span(i int, e *Event) Span {
	o := &t.open[i]
	return Span{
		Job:       t.keys[i].job,
		Class:     o.class,
		Arrival:   o.arrival,
		End:       e.T,
		Queue:     o.acc[stateQueued],
		Service:   o.acc[stateService],
		Preempted: o.acc[statePreempted],
		Backoff:   o.acc[stateBackoff],
		Attempts:  o.attempts,
		Outcome:   Outcome(e.Value),
	}
}

// Recorder is the flight recorder. Construct with NewRecorder; the zero
// value is not usable, but a nil *Recorder is a no-op on every method.
//
// All methods are safe for concurrent use (one mutex guards everything, and
// every reader copies under it), so an HTTP exposition goroutine may snapshot
// or drain the recorder while the simulator is still feeding it. A feeder
// that batches its events, as the simulator does, is visible to readers only
// up to its last Record call.
type Recorder struct {
	mu sync.Mutex

	// events ring
	ev        []Event
	evHead    int
	evLen     int
	evDropped uint64

	spans spanTable   // applied to every event since the last Reset
	agg   []Breakdown // indexed by class, grown on demand
}

// defaultCapacity is the event-ring capacity NewRecorder uses when given a
// non-positive capacity.
const defaultCapacity = 1 << 16

// NewRecorder returns a recorder whose event ring holds capacity events (at
// least 1024). Non-positive capacity selects defaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	r := &Recorder{ev: make([]Event, max(capacity, 1024))}
	r.spans.resize(openInitial)
	return r
}

// push appends to the event ring, overwriting (and counting) the oldest
// entry when full. Caller holds mu.
func (r *Recorder) push(e Event) {
	if r.evLen < len(r.ev) {
		r.ev[wrap(r.evHead+r.evLen, len(r.ev))] = e
		r.evLen++
		return
	}
	r.ev[r.evHead] = e
	r.evHead = wrap(r.evHead+1, len(r.ev))
	r.evDropped++
}

// wrap reduces a ring index i in [0, 2n) to [0, n) with a compare rather
// than an integer division, which the per-event pushes would pay.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// Record ingests lifecycle events in order, under one lock for the whole
// batch: each event is appended to the event ring and its kind's transition
// applied to the job's open span. An arrival opens a span in the queued
// state; every other kind first charges the time since the job's previous
// event to the span's current state, then
//
//	KindServiceStart             switches it to service,
//	KindPreempt                  switches it to preempted (forced off a
//	                             server with work remaining),
//	KindBackoff                  switches it to backoff and counts a retry,
//	KindServiceStop, KindTimeout,
//	KindResume                   return it to queued (between stations,
//	                             awaiting the retry-or-abandon decision, or
//	                             re-entering after backoff),
//	KindExit                     closes it with Outcome(e.Value) and folds
//	                             it into the per-class aggregate.
//
// An event for a job with no open span counts as unmatched, and so does an
// arrival for a job whose span is still open (the stale span is discarded).
func (r *Recorder) Record(es ...Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range es {
		e := &es[i]
		r.push(*e)
		if j := r.spans.apply(e); j >= 0 {
			r.close(&r.spans.open[j], Outcome(e.Value))
			r.spans.remove(j)
		}
	}
}

// close folds the open span o, closing with outcome, into its class's
// aggregate. Caller holds mu.
func (r *Recorder) close(o *openSpan, outcome Outcome) {
	for int(o.class) >= len(r.agg) {
		r.agg = append(r.agg, Breakdown{Class: len(r.agg)})
	}
	a := &r.agg[o.class]
	switch outcome {
	case OutcomeAbandoned:
		a.Abandoned++
	case OutcomeDropped:
		a.Dropped++
	default:
		a.Completed++
	}
	a.Queue += o.acc[stateQueued]
	a.Service += o.acc[stateService]
	a.Preempted += o.acc[statePreempted]
	a.Backoff += o.acc[stateBackoff]
}

// Events returns a copy of the buffered events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.copyEventsLocked()
}

// copyEventsLocked copies the ring's one or two contiguous segments, oldest
// first. Caller holds mu.
func (r *Recorder) copyEventsLocked() []Event {
	out := make([]Event, r.evLen)
	n := copy(out, r.ev[r.evHead:min(r.evHead+r.evLen, len(r.ev))])
	copy(out[n:], r.ev)
	return out
}

// Drain returns the buffered events, oldest first, and clears the event
// ring (open spans and aggregates are untouched).
func (r *Recorder) Drain() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.copyEventsLocked()
	r.evHead, r.evLen = 0, 0
	return out
}

// Spans returns the closed spans whose arrival is still in the event ring,
// in the order they closed. They are assembled when read, by replaying the
// buffered events through the state machine Record applies, and are
// bit-identical to the spans Record closed: a span depends only on the
// events since its job's arrival. So once the ring wraps, or after Drain,
// the spans opened by the lost events are gone (the aggregates still count
// them), and a span still open when it is read is not returned.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	es := r.copyEventsLocked()
	r.mu.Unlock()
	var t spanTable
	t.resize(openInitial)
	var out []Span
	for i := range es {
		if j := t.apply(&es[i]); j >= 0 {
			out = append(out, t.span(j, &es[i]))
			t.remove(j)
		}
	}
	return out
}

// Breakdowns returns a copy of the per-class aggregates, indexed by class.
// Classes that closed no spans have zero counts.
func (r *Recorder) Breakdowns() []Breakdown {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Breakdown, len(r.agg))
	copy(out, r.agg)
	return out
}

// Breakdown returns the aggregate for one class (zero-valued if the class
// closed no spans or is out of range).
func (r *Recorder) Breakdown(class int) Breakdown {
	if r == nil {
		return Breakdown{Class: class}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if class < 0 || class >= len(r.agg) {
		return Breakdown{Class: class}
	}
	return r.agg[class]
}

// EventsDropped returns how many events were overwritten before being read.
func (r *Recorder) EventsDropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evDropped
}

// OpenSpans returns the number of jobs currently in flight.
func (r *Recorder) OpenSpans() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.n
}

// Unmatched returns the number of events that referenced a job with no open
// span (nonzero indicates an instrumentation bug in the caller).
func (r *Recorder) Unmatched() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.unmatched
}

// Reset clears the event ring, open spans, aggregates, and counters,
// returning the recorder to its freshly constructed state.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evHead, r.evLen, r.evDropped = 0, 0, 0
	clear(r.spans.keys)
	r.spans.n, r.spans.unmatched = 0, 0
	r.agg = r.agg[:0]
}
