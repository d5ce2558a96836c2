package sim

import (
	"sort"
	"testing"
)

// refEvent is the reference model's copy of a scheduled event: the fields
// the calendar must hand back unchanged, in (time, seq) order.
type refEvent struct {
	time float64
	seq  uint64
	gen  uint64
	kind eventKind
}

// refLess is eventLess on the reference model's values.
func refLess(a, b refEvent) bool {
	//lint:waive floateq reason="the reference must break exact time ties on seq, like eventLess" until=2027-08-01
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// driveCalendarAgainstSorted runs the calendar through a randomized
// workload — schedules (plain and gen-stamped, with far-future, near-term,
// exactly-tied and exactly-now times), single pops, AdvanceTo-style drains,
// in-place removals of scheduled events, sequence numbers reserved now but
// pushed later, and popped events held while schedules and cancels fill
// and move the calendar's hole, as a handler does — next to a sorted slice
// holding the same live events. It asserts that every peekTime and every
// pop agrees with the slice's head, gen stamps included, and that after
// every recycle the heap holds exactly the live events, each in the slot
// its index names. ops bounds the workload length so the fuzz harness
// stays fast.
func driveCalendarAgainstSorted(t *testing.T, seed uint64, ops int) {
	t.Helper()
	cal := newCalendar()
	var ref []refEvent
	scheduled := make(map[uint64]*event) // live events by seq
	var reserved []refEvent              // reserved keys not yet pushed
	rng := NewRNG(seed)
	pops := 0

	// checkSlots asserts that the heap holds exactly the live events and
	// that each one's index names its own slot: no dead slot survives a
	// recycle.
	checkSlots := func() {
		if len(cal.events) != len(ref) {
			t.Fatalf("pop %d: heap holds %d slots, %d events are live", pops, len(cal.events), len(ref))
		}
		for _, r := range ref {
			e := scheduled[r.seq]
			if e.index < 0 || e.index >= len(cal.events) || cal.events[e.index] != e {
				t.Fatalf("pop %d: event seq=%d claims heap slot %d, which does not hold it", pops, r.seq, e.index)
			}
		}
	}

	// peekBoth checks peekTime against the reference head.
	peekBoth := func() bool {
		pt, ok := cal.peekTime()
		if ok != (len(ref) > 0) {
			t.Fatalf("pop %d: peekTime ok=%v with %d scheduled", pops, ok, len(ref))
		}
		if ok && pt != ref[0].time {
			t.Fatalf("pop %d: peekTime %v, want %v", pops, pt, ref[0].time)
		}
		return ok
	}

	// popHeld pops the head on both sides and returns the calendar's event
	// without recycling it, so its slot is still the calendar's hole; nil
	// when both are empty.
	popHeld := func() *event {
		if !peekBoth() {
			if e := cal.next(); e != nil {
				t.Fatalf("pop %d: next returned t=%v from an empty calendar", pops, e.time)
			}
			return nil
		}
		want := ref[0]
		ref = ref[1:]
		e := cal.next()
		if e == nil {
			t.Fatalf("pop %d: nil with %d scheduled", pops, len(ref)+1)
		}
		if got := (refEvent{e.time, e.seq, e.gen, e.kind}); got != want {
			t.Fatalf("pop %d: got (t=%v seq=%d gen=%d kind=%d), want (t=%v seq=%d gen=%d kind=%d)",
				pops, got.time, got.seq, got.gen, got.kind, want.time, want.seq, want.gen, want.kind)
		}
		if cal.now != want.time {
			t.Fatalf("pop %d: clock %v, want %v", pops, cal.now, want.time)
		}
		delete(scheduled, e.seq)
		pops++
		return e
	}

	popBoth := func() bool {
		e := popHeld()
		if e == nil {
			return false
		}
		cal.recycle(e)
		checkSlots()
		return true
	}

	// pickTime draws a time at or after the clock: a mix biased toward the
	// simulator's schedule-at-now+Δ pattern, with deliberate exact time
	// ties so the seq tie-break is exercised on every run.
	pickTime := func() float64 {
		switch rng.Uint64() % 6 {
		case 0: // far future
			return cal.now + rng.Float64()*1e4
		case 1: // mid range
			return cal.now + rng.Float64()*100
		case 2: // near term
			return cal.now + rng.Float64()
		case 3: // exact tie grid: many bitwise-equal times
			return cal.now + float64(rng.Uint64()%16)
		case 4: // tight non-equal cluster
			return cal.now + 10 + rng.Float64()*0.01
		default: // exactly now: ordering is pure seq
			return cal.now
		}
	}

	// insert adds r to the sorted reference.
	insert := func(r refEvent) {
		i := sort.Search(len(ref), func(i int) bool { return refLess(r, ref[i]) })
		ref = append(ref, refEvent{})
		copy(ref[i+1:], ref[i:])
		ref[i] = r
	}

	// pushGen schedules a gen-stamped event under a given seq, the path
	// deadlines use (scheduleGen): the stamp must ride along unperturbed
	// for staleness checks to work.
	pushGen := func(r refEvent) {
		cal.scheduleGen(r.time, r.seq, r.kind, 0, nil, r.gen)
		for _, e := range cal.events {
			if e.seq == r.seq {
				scheduled[r.seq] = e
			}
		}
		insert(r)
	}

	scheduleAt := func(at float64) {
		if rng.Uint64()%4 == 0 {
			pushGen(refEvent{time: at, seq: cal.reserve(), gen: rng.Uint64() % 8, kind: evTimeout})
			return
		}
		r := refEvent{time: at, seq: cal.seq, kind: evArrival}
		scheduled[r.seq] = cal.schedule(at, r.kind, 0, nil, 0, nil)
		insert(r)
	}
	schedule := func() { scheduleAt(pickTime()) }

	// remove cancels a random live event in place, as preemption cancels a
	// departure, and checks the event's recorded slot on the way.
	remove := func() {
		if len(ref) == 0 {
			return
		}
		i := int(rng.Uint64() % uint64(len(ref)))
		r := ref[i]
		e := scheduled[r.seq]
		if e.index < 0 || e.index >= len(cal.events) || cal.events[e.index] != e {
			t.Fatalf("event seq=%d claims heap slot %d, which does not hold it", r.seq, e.index)
		}
		cal.cancel(e)
		delete(scheduled, r.seq)
		ref = append(ref[:i], ref[i+1:]...)
	}

	// reserve takes a seq now for an event due at a time chosen now, as
	// armDeadline does; pushReserved later schedules one under that key,
	// as a timeout FIFO does when the entry becomes its head. A
	// reservation whose time the clock has passed is dropped unpushed, as
	// the FIFO drops an entry whose attempt already ended.
	reserve := func() {
		reserved = append(reserved, refEvent{
			time: pickTime(), seq: cal.reserve(), gen: rng.Uint64() % 8, kind: evTimeout,
		})
	}
	pushReserved := func() {
		if len(reserved) == 0 {
			return
		}
		i := int(rng.Uint64() % uint64(len(reserved)))
		r := reserved[i]
		reserved = append(reserved[:i], reserved[i+1:]...)
		if r.time >= cal.now {
			pushGen(r)
		}
	}

	// hold pops an event and keeps it, as a handler does, while the
	// calendar takes schedules and cancels with the popped slot as its
	// hole, then recycles it.
	hold := func() {
		e := popHeld()
		if e == nil {
			return
		}
		switch rng.Uint64() % 7 {
		case 0: // plain and gen-stamped schedules, some under reserved seqs
			for n := rng.Uint64() % 3; n > 0; n-- {
				schedule()
			}
			pushReserved()
		case 1: // at now, then exactly tied with a live event
			scheduleAt(cal.now)
			if len(ref) > 0 {
				scheduleAt(ref[rng.Uint64()%uint64(len(ref))].time)
			}
		case 2: // one cancel with nothing scheduled after it
			remove()
		case 3: // two cancels in a row
			remove()
			remove()
		case 4: // cancel then schedule, as preempt does
			remove()
			schedule()
		case 5: // peek while held
			peekBoth()
			schedule()
		}
		cal.recycle(e)
		checkSlots()
	}

	for i := 0; i < ops; i++ {
		switch op := rng.Uint64() % 15; {
		case op < 5:
			schedule()
		case op < 8:
			popBoth()
		case op < 9:
			// AdvanceTo-style drain: pop everything at or before a target
			// time, exactly how the step engine and the shared-clock
			// orchestrator consume the calendar.
			target := cal.now + rng.Float64()*50
			for {
				et, ok := cal.peekTime()
				if !ok || et > target {
					break
				}
				popBoth()
			}
		case op < 10:
			remove()
		case op < 11:
			reserve()
		case op < 12:
			pushReserved()
		default:
			hold()
		}
	}
	// Drain completely: the tail must match too.
	for popBoth() {
	}
	if !cal.empty() {
		t.Fatal("calendar reports non-empty after a full drain")
	}
}

// TestCalendarMatchesSortedPopOrder is the property test: across many seeds
// the calendar pops exactly the (time, seq) order of a sorted slice holding
// the same events. Every golden hash rests on this order.
func TestCalendarMatchesSortedPopOrder(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		driveCalendarAgainstSorted(t, seed, 4000)
	}
}

// TestCalendarMatchesSortedLargeLiveSet pushes one big batch, with heavy
// exact-tie pileups, and drains it against the sorted batch.
func TestCalendarMatchesSortedLargeLiveSet(t *testing.T) {
	cal := newCalendar()
	rng := NewRNG(99)
	const n = 200000
	ref := make([]refEvent, 0, n)
	for i := 0; i < n; i++ {
		var at float64
		if rng.Uint64()%3 == 0 {
			at = float64(rng.Uint64() % 64) // massive equal-time pileups
		} else {
			at = rng.Float64() * 1000
		}
		ref = append(ref, refEvent{time: at, seq: cal.seq, kind: evArrival})
		cal.schedule(at, evArrival, 0, nil, 0, nil)
	}
	sort.Slice(ref, func(i, j int) bool { return refLess(ref[i], ref[j]) })
	for i, want := range ref {
		e := cal.next()
		if e.time != want.time || e.seq != want.seq {
			t.Fatalf("pop %d: got (t=%v seq=%d), want (t=%v seq=%d)", i, e.time, e.seq, want.time, want.seq)
		}
		cal.recycle(e)
	}
	if !cal.empty() {
		t.Fatal("calendar non-empty after a full drain")
	}
}

// FuzzCalendarMatchesSorted lets the fuzzer search the workload space for a
// seed whose pop sequence departs from the sorted reference. The corpus
// seeds cover the regimes the property test already walks;
// `go test -fuzz FuzzCalendarMatchesSorted` digs further.
func FuzzCalendarMatchesSorted(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(7))
	f.Add(uint64(42))
	f.Add(uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed uint64) {
		driveCalendarAgainstSorted(t, seed, 1500)
	})
}
