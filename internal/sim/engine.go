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
// Every event records its own slot (event.index), so a cancelled event can
// be removed in place. The sifts move a hole rather than swapping: each
// level writes one slot and one index, and the sifted event lands once.
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

// push inserts e; the caller has already assigned e.time and e.seq.
func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	h.up(len(*h)-1, e)
}

// pop removes and returns the eventLess-minimum event, nil when empty.
func (h *eventHeap) pop() *event {
	s := *h
	if len(s) == 0 {
		return nil
	}
	e := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if n > 0 {
		s[:n].down(0, last)
	}
	return e
}

// remove deletes the scheduled event e from wherever it sits. The last
// event fills the hole and sifts whichever way restores the heap order.
func (h *eventHeap) remove(e *event) {
	s := *h
	i := e.index
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if i == n {
		return
	}
	if i > 0 && eventLess(last, s[(i-1)/2]) {
		s.up(i, last)
	} else {
		s.down(i, last)
	}
}

// calendar wraps the event heap with a monotone clock, sequence numbering,
// and an event free list. Popped and cancelled events are recycled, so once
// the heap and free list reach the replication's high-water mark the
// calendar stops allocating: the live event set, not the event count, bounds
// memory.
type calendar struct {
	events eventHeap
	seq    uint64
	now    float64
	free   []*event
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
// precede the clock.
func (c *calendar) atSeq(t float64, seq uint64, e *event) {
	e.time = t
	e.seq = seq
	c.events.push(e)
}

// cancel removes a scheduled event that will never fire and recycles it.
// The caller must not retain the event.
func (c *calendar) cancel(e *event) {
	c.events.remove(e)
	c.recycle(e)
}

// peekTime reports the earliest scheduled event time without popping the
// event or advancing the clock; ok is false when the calendar is empty.
// Steppers use it to decide whether the next event is inside the horizon
// BEFORE committing the clock to it — popping first would advance now past
// the horizon and strand the event outside the free list.
func (c *calendar) peekTime() (float64, bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].time, true
}

// next pops the earliest event and advances the clock; nil when empty.
func (c *calendar) next() *event {
	e := c.events.pop()
	if e == nil {
		return nil
	}
	c.now = e.time
	return e
}

// recycle returns a popped event to the free list. The caller must not
// retain the event: its fields are overwritten on the next schedule.
func (c *calendar) recycle(e *event) {
	e.job, e.run = nil, nil
	c.free = append(c.free, e)
}

// empty reports whether any events remain.
func (c *calendar) empty() bool { return len(c.events) == 0 }
