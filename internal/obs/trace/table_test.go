package trace

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// mapModel is a reference flight recorder: the same transitions as Record,
// with open spans in a Go map, an unbounded log of the events since the last
// drain and of the closed spans. It checks the open-addressed table, not the
// state machine, so it shares none of the recorder's table code.
type mapModel struct {
	open      map[uint64]*modelSpan
	live      []uint64 // the open ids, for drawing one without map order
	events    []Event
	spans     []Span
	agg       []Breakdown
	unmatched uint64
}

type modelSpan struct {
	sp    Span
	lastT float64
	state spanState
	pos   int // index in live
}

func newMapModel() *mapModel { return &mapModel{open: map[uint64]*modelSpan{}} }

func (m *mapModel) record(e Event) {
	m.events = append(m.events, e)
	if e.Kind == KindArrival {
		pos := len(m.live)
		if old := m.open[e.Job]; old != nil {
			m.unmatched++
			pos = old.pos
		} else {
			m.live = append(m.live, e.Job)
		}
		m.open[e.Job] = &modelSpan{sp: Span{Job: e.Job, Class: e.Class, Arrival: e.T}, lastT: e.T, state: stateQueued, pos: pos}
		return
	}
	o := m.open[e.Job]
	if o == nil {
		m.unmatched++
		return
	}
	if dt := e.T - o.lastT; dt > 0 {
		switch o.state {
		case stateQueued:
			o.sp.Queue += dt
		case stateService:
			o.sp.Service += dt
		case statePreempted:
			o.sp.Preempted += dt
		case stateBackoff:
			o.sp.Backoff += dt
		}
	}
	o.lastT = e.T
	switch e.Kind {
	case KindServiceStart:
		o.state = stateService
	case KindPreempt:
		o.state = statePreempted
	case KindBackoff:
		o.state = stateBackoff
		o.sp.Attempts++
	case KindExit:
		o.sp.End, o.sp.Outcome = e.T, Outcome(e.Value)
		m.spans = append(m.spans, o.sp)
		for int(o.sp.Class) >= len(m.agg) {
			m.agg = append(m.agg, Breakdown{Class: len(m.agg)})
		}
		a := &m.agg[o.sp.Class]
		switch o.sp.Outcome {
		case OutcomeAbandoned:
			a.Abandoned++
		case OutcomeDropped:
			a.Dropped++
		default:
			a.Completed++
		}
		a.Queue += o.sp.Queue
		a.Service += o.sp.Service
		a.Preempted += o.sp.Preempted
		a.Backoff += o.sp.Backoff
		last := m.live[len(m.live)-1]
		m.live[o.pos] = last
		m.open[last].pos = o.pos
		m.live = m.live[:len(m.live)-1]
		delete(m.open, e.Job)
	default:
		o.state = stateQueued
	}
}

// replaySpans returns the spans a fresh model closes from events: what
// Spans must assemble from a ring that holds them.
func replaySpans(events []Event) []Span {
	m := newMapModel()
	for _, e := range events {
		m.record(e)
	}
	return m.spans
}

// tail returns the last n entries of s (all of s when shorter): what a ring
// of capacity n retains.
func tail[T any](s []T, n int) []T { return s[max(0, len(s)-n):] }

// collidingIDs returns ids whose Fibonacci hashes are 0..n-1 and -1..-n:
// the first set shares the home slot 0 at every table size, the second the
// last slot, so its probes wrap around the end of the table.
func collidingIDs(n int) []uint64 {
	inv := uint64(fibHash) // fibHash's inverse mod 2^64, by Newton's iteration
	for range 6 {
		inv *= 2 - fibHash*inv
	}
	ids := make([]uint64, 0, 2*n)
	for k := 0; k < n; k++ {
		ids = append(ids, uint64(k)*inv, -uint64(k+1)*inv)
	}
	return ids
}

// TestOpenSpanTableMatchesMapModel drives random interleavings of every
// lifecycle event through the recorder and the map model, in batches of
// random size, and requires the same spans, aggregates, open-span count,
// unmatched count and event ring after every batch. The id pool covers 0,
// math.MaxUint64, ids that collide in the table (including probes that wrap
// around its end), duplicate arrivals and events for unknown jobs; phases
// that mostly open spans grow the table past its initial size, and the
// event ring wraps, so Spans replays only the buffered tail. Each seed ends with a Reset, after which the recorder is
// driven again and must still agree.
func TestOpenSpanTableMatchesMapModel(t *testing.T) {
	const capacity = 1024 // the event ring wraps
	ids := append([]uint64{0, math.MaxUint64, math.MaxUint64 - 1, 1}, collidingIDs(48)...)
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		r := NewRecorder(capacity)
		m := newMapModel()
		next := uint64(2) // fresh sequential ids, like the simulator's
		now := 0.0
		grown := false
		for round := 0; round < 2; round++ {
			for batch := 0; batch < 300; batch++ {
				// Alternate filling phases (mostly arrivals) with
				// draining ones (mostly exits).
				fill := batch/50%2 == 0
				var es []Event
				for n := 1 + rng.IntN(64); n > 0; n-- {
					es = append(es, randomEvent(rng, m, ids, &next, &now, fill))
				}
				r.Record(es...)
				for _, e := range es {
					m.record(e)
				}
				grown = grown || len(m.open) > openInitial*3/4
				compareModel(t, fmt.Sprintf("seed %d, round %d, batch %d", seed, round, batch), r, m, capacity)
				if t.Failed() {
					return
				}
			}
			r.Reset()
			m = newMapModel()
		}
		if !grown {
			t.Errorf("seed %d: never had more than %d spans open; the table did not grow", seed, openInitial*3/4)
		}
	}
}

// randomEvent draws one event: an arrival (usually a fresh sequential id,
// sometimes a special or colliding id, which may duplicate an open one), an
// event for an unknown job, or a transition of a random open span.
func randomEvent(rng *rand.Rand, m *mapModel, ids []uint64, next *uint64, now *float64, fill bool) Event {
	if rng.IntN(4) > 0 {
		*now += rng.ExpFloat64() // a quarter of events share the previous time
	}
	class := int32(rng.IntN(3))
	arrive := 0.15
	if fill {
		arrive = 0.6
	}
	switch u := rng.Float64(); {
	case u < arrive:
		job := *next
		if rng.IntN(3) == 0 {
			job = ids[rng.IntN(len(ids))]
		} else {
			*next++
		}
		return Event{T: *now, Job: job, Class: class, Station: -1, Kind: KindArrival}
	case u < arrive+0.02 || len(m.open) == 0:
		return Event{T: *now, Job: math.MaxUint64 - 2 - uint64(rng.IntN(1<<20)), Class: class,
			Kind: Kind(1 + rng.IntN(int(numKinds)-1))}
	}
	job := m.live[rng.IntN(len(m.live))] // a transition of an open span
	e := Event{T: *now, Job: job, Class: m.open[job].sp.Class, Station: int32(rng.IntN(3))}
	switch rng.IntN(8) {
	case 0, 1:
		e.Kind = KindServiceStart
	case 2:
		e.Kind = KindServiceStop
	case 3:
		e.Kind = KindPreempt
	case 4:
		e.Kind = KindTimeout
	case 5:
		e.Kind, e.Station, e.Value = KindBackoff, -1, float64(1+rng.IntN(3))
	case 6:
		e.Kind, e.Station = KindResume, -1
	default:
		e.Kind, e.Station, e.Value = KindExit, -1, float64(rng.IntN(int(numOutcomes)))
	}
	return e
}

func compareModel(t *testing.T, at string, r *Recorder, m *mapModel, capacity int) {
	t.Helper()
	if got, want := r.OpenSpans(), len(m.open); got != want {
		t.Errorf("%s: OpenSpans %d, model %d", at, got, want)
	}
	if got, want := r.Unmatched(), m.unmatched; got != want {
		t.Errorf("%s: Unmatched %d, model %d", at, got, want)
	}
	if got, want := r.Spans(), replaySpans(tail(m.events, capacity)); !slices.Equal(got, want) {
		t.Errorf("%s: spans differ (%d, model %d)", at, len(got), len(want))
	}
	if got, want := r.Breakdowns(), m.agg; !slices.Equal(got, want) {
		t.Errorf("%s: breakdowns differ:\n got %+v\nwant %+v", at, got, want)
	}
	if got, want := r.Events(), tail(m.events, capacity); !slices.Equal(got, want) {
		t.Errorf("%s: events differ (%d, model %d)", at, len(got), len(want))
	}
}
