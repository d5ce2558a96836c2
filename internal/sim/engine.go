package sim

// eventKind discriminates the simulator's event types.
type eventKind int

const (
	evArrival   eventKind = iota // candidate external arrival of a class
	evDeparture                  // service completion at a station
	evControl                    // runtime DVFS controller epoch
	evSetupDone                  // a sleeping server finished warming up
	evSample                     // observability probe sampling tick
	evBreakdown                  // candidate server breakdown at a station (thinned)
	evRepair                     // a failed server finished its repair
	evTimeout                    // a class deadline expired for a specific attempt
	evRetry                      // a timed-out job re-enters after its backoff
	evShedEpoch                  // admission-control epoch: re-decide the shed level
)

// event is one scheduled occurrence. Events are ordered by time with the
// sequence number as a deterministic tie-breaker, making runs reproducible.
type event struct {
	time    float64
	seq     uint64
	index   int // position in the heap; meaningful only while scheduled
	kind    eventKind
	class   int
	job     *job
	station int
	run     *serviceRun // for departures: the service run completing
	// gen is a staleness stamp for timeout/retry events: the job's id when
	// the attempt was armed. Jobs are pooled, so by the time such an event
	// fires its *job may have been recycled; the handler compares gen
	// against the job's current id and ignores the event on mismatch. Only
	// a timeout whose attempt ends after the event was scheduled (see
	// timeoutEntry) can still reach its handler stale.
	gen uint64
}

// eventLess is the calendar's one total order: ascending time with the
// sequence number as a deterministic tie-breaker. Pop order is a pure
// function of this order, so the heap's internal layout cannot perturb
// results.
func eventLess(a, b *event) bool {
	//lint:waive floateq reason="deliberate exact compare: bitwise-equal times fall through to the seq tie-break" until=2027-08-01
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventHeap is a concrete binary min-heap of events ordered by eventLess.
// It deliberately does not implement container/heap: the stdlib interface
// boxes every Push/Pop operand through `any`, which heap-allocates one
// escape per scheduled event. With concrete methods the sift loops stay
// monomorphic and the calendar's steady state allocates nothing.
//
// Every event records its own slot (event.index), so a cancelled event's
// slot can be refilled or removed in place. The sifts move a hole rather
// than swapping: each level writes one slot and one index, and the sifted
// event lands once.
type eventHeap []*event

// up places e at the hole i and sifts it toward the root.
func (h eventHeap) up(i int, e *event) {
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !eventLess(e, p) {
			break
		}
		h[i] = p
		p.index = i
		i = parent
	}
	h[i] = e
	e.index = i
}

// down places e at the hole i and sifts it toward the leaves.
func (h eventHeap) down(i int, e *event) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			m = r
		}
		c := h[m]
		if !eventLess(c, e) {
			break
		}
		h[i] = c
		c.index = i
		i = m
	}
	h[i] = e
	e.index = i
}

// fill places e at the hole i and sifts whichever way restores the heap
// order: up if e sorts before i's parent, down otherwise.
func (h eventHeap) fill(i int, e *event) {
	if i > 0 && eventLess(e, h[(i-1)/2]) {
		h.up(i, e)
	} else {
		h.down(i, e)
	}
}

// removeAt deletes the event at slot i; the last event refills the slot.
func (h *eventHeap) removeAt(i int) {
	s := *h
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if i < n {
		s[:n].fill(i, last)
	}
}

// calendar wraps the event heap with a monotone clock, sequence numbering,
// and an event free list. Popped and cancelled events are recycled, so once
// the heap and free list reach the replication's high-water mark the
// calendar stops allocating: the live event set, not the event count, bounds
// memory.
//
// The calendar may hold one hole: a slot whose event is dead but still in
// the heap. next leaves the popped root there and cancel the cancelled
// event's slot, so the schedule that usually follows (a handler's first
// schedule, or a preemption's new departure) fills that slot with one sift
// instead of paying a removal's sift and then an insertion's. recycle,
// peekTime, empty and next remove a hole still open, so once an event's
// handler has returned no dead slot remains.
type calendar struct {
	events eventHeap
	seq    uint64
	now    float64
	free   []*event
	hole   int // the hole's slot plus one; 0 when there is none
}

// newCalendar builds an empty calendar.
func newCalendar() *calendar { return &calendar{} }

// schedule enqueues a pooled event at absolute time t and returns it, so a
// departure's run can cancel it later. The fields not used by the kind are
// zeroed.
func (c *calendar) schedule(t float64, kind eventKind, class int, j *job, station int, run *serviceRun) *event {
	e := c.alloc()
	e.kind, e.class, e.job, e.station, e.run, e.gen = kind, class, j, station, run, 0
	c.atSeq(t, c.reserve(), e)
	return e
}

// scheduleGen enqueues a pooled event carrying a generation stamp (see
// event.gen) under a sequence number taken earlier from reserve — the
// scheduling entry point for timeout and retry events.
func (c *calendar) scheduleGen(t float64, seq uint64, kind eventKind, class int, j *job, gen uint64) {
	e := c.alloc()
	e.kind, e.class, e.job, e.station, e.run, e.gen = kind, class, j, -1, nil, gen
	c.atSeq(t, seq, e)
}

// alloc pops a recycled event or makes a fresh one.
func (c *calendar) alloc() *event {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	return &event{}
}

// reserve takes the next sequence number without scheduling anything. An
// event pushed later under it (atSeq) sorts exactly as it would have,
// had it been scheduled at the moment of reservation.
func (c *calendar) reserve() uint64 {
	seq := c.seq
	c.seq++
	return seq
}

// atSeq is the one scheduling path: it puts e on the heap at absolute time
// t under seq, a number taken from reserve now or earlier. t must not
// precede the clock. e fills the hole if one is open, else a new last slot.
func (c *calendar) atSeq(t float64, seq uint64, e *event) {
	e.time = t
	e.seq = seq
	if c.hole == 0 { // a new last slot is a leaf: only a sift-up can move e
		c.events = append(c.events, e)
		c.events.up(len(c.events)-1, e)
		return
	}
	i := c.hole - 1
	c.hole = 0
	c.events.fill(i, e)
}

// settle removes the dead event left in the hole, if any.
func (c *calendar) settle() {
	if c.hole > 0 {
		c.events.removeAt(c.hole - 1)
		c.hole = 0
	}
}

// cancel drops a scheduled event that will never fire and puts it on the
// free list; its slot becomes the hole. The caller must not retain the
// event.
func (c *calendar) cancel(e *event) {
	c.settle()
	c.hole = e.index + 1
	c.release(e)
}

// peekTime reports the earliest scheduled event time without popping the
// event or advancing the clock; ok is false when the calendar is empty.
// Steppers use it to decide whether the next event is inside the horizon
// BEFORE committing the clock to it — popping first would advance now past
// the horizon and strand the event outside the free list.
func (c *calendar) peekTime() (float64, bool) {
	c.settle()
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].time, true
}

// next pops the earliest event and advances the clock; nil when empty. The
// popped event's slot becomes the hole.
func (c *calendar) next() *event {
	c.settle()
	if len(c.events) == 0 {
		return nil
	}
	e := c.events[0]
	c.hole = 1
	c.now = e.time
	return e
}

// recycle returns a popped event to the free list. The caller must not
// retain the event: its fields are overwritten on the next schedule.
func (c *calendar) recycle(e *event) {
	c.settle()
	c.release(e)
}

// release puts e on the free list; a hole it leaves stays open.
func (c *calendar) release(e *event) {
	e.job, e.run = nil, nil
	c.free = append(c.free, e)
}

// empty reports whether any events remain.
func (c *calendar) empty() bool {
	c.settle()
	return len(c.events) == 0
}
