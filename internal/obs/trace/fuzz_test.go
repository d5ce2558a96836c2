package trace

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// FuzzRecorderMatchesModel drives a 1024-event recorder and the map model
// with the same byte-coded operations and requires the same events, spans,
// breakdowns, open-span count and unmatched count, bit for bit, at every
// checkpoint, Drain and Reset and at the end. The spans the recorder
// assembles must be those a fresh model closes from the buffered events, so
// after the ring wraps or a Drain only the spans whose arrival is still
// buffered come back.
//
// seq is read two bytes at a time, an operation and its argument. The
// operation's high nibble moves the clock by nibble/4 − 1/4 seconds (one
// step back, one standing still, the rest forward); its low nibble picks:
//
//	0–2  an arrival of a fresh sequential id, class arg%3
//	3    an arrival of a special or colliding id (it may be open already)
//	4–10 service start, service stop, preempt, timeout, backoff (attempt
//	     1+arg%3), resume or exit (outcome arg%3) of open span arg%open
//	11   an event of kind 1+arg%7 for a job that never arrived
//	12   1+arg fresh arrival-exit pairs, which wrap the ring quickly
//	13   a checkpoint
//	14   a Drain
//	15   a Reset
//
// Events are handed to Record in batches that end at operations 13–15.
// Operations past the first maxOps are ignored, which keeps an input's run
// short.
func FuzzRecorderMatchesModel(f *testing.F) {
	f.Add([]byte{0x20, 1, 0x21, 2, 0x34, 0, 0x25, 1, 0x46, 0, 0x14, 0, 0x27, 1, 0x38, 0, 0x19, 0, 0x2a, 0, 0x0d, 0, 0x2a, 1, 0x2b, 3, 0x0d, 0})
	f.Add([]byte{0x20, 0, 0x21, 1, 0x22, 2, 0x2c, 255, 0x24, 0, 0x2c, 255, 0x25, 1, 0x2c, 200, 0x2a, 0, 0x0d, 0,
		0x2a, 0, 0x2e, 0, 0x20, 0, 0x2a, 1, 0x0d, 0, 0x2c, 100, 0x0f, 0, 0x23, 4, 0x23, 4, 0x2a, 0, 0x0d, 0})
	f.Add([]byte{0x23, 0, 0x23, 1, 0x23, 2, 0x23, 3, 0x23, 4, 0x23, 5, 0x23, 6, 0x23, 7, 0x24, 3, 0x0a, 3, 0x1a, 0, 0x0d, 0, 0x2c, 255, 0x2c, 255, 0x2e, 0})
	ids := append([]uint64{0, math.MaxUint64, math.MaxUint64 - 1, 1}, collidingIDs(6)...)
	f.Fuzz(func(t *testing.T, seq []byte) {
		const capacity, maxOps = 1024, 256
		r := NewRecorder(capacity)
		m := newMapModel()
		next, now := uint64(2), 0.0
		var batch []Event
		add := func(e Event) {
			m.record(e)
			batch = append(batch, e)
		}
		flush := func() {
			r.Record(batch...)
			batch = batch[:0]
		}
		for i := 0; i+1 < len(seq) && i < 2*maxOps; i += 2 {
			op, arg := seq[i], seq[i+1]
			now += float64(op>>4)/4 - 0.25
			class := int32(arg % 3)
			at := fmt.Sprintf("op %d (%#x %d)", i/2, op, arg)
			switch k := op & 15; {
			case k <= 2:
				add(Event{T: now, Job: next, Class: class, Station: -1, Kind: KindArrival})
				next++
			case k == 3:
				add(Event{T: now, Job: ids[int(arg)%len(ids)], Class: class, Station: -1, Kind: KindArrival})
			case k <= 10 && len(m.live) > 0:
				job := m.live[int(arg)%len(m.live)]
				e := Event{T: now, Job: job, Class: m.open[job].sp.Class, Station: int32(arg % 3),
					Kind: [...]Kind{KindServiceStart, KindServiceStop, KindPreempt, KindTimeout, KindBackoff, KindResume, KindExit}[k-4]}
				switch e.Kind {
				case KindBackoff:
					e.Station, e.Value = -1, float64(1+arg%3)
				case KindResume:
					e.Station = -1
				case KindExit:
					e.Station, e.Value = -1, float64(arg%3)
				}
				add(e)
			case k <= 11:
				add(Event{T: now, Job: math.MaxUint64 - 2 - uint64(arg), Class: class, Station: -1, Kind: Kind(1 + arg%7)})
			case k == 12:
				for n := 0; n <= int(arg); n++ {
					add(Event{T: now, Job: next, Class: int32(n % 3), Station: -1, Kind: KindArrival})
					add(Event{T: now + 0.25, Job: next, Class: int32(n % 3), Station: -1, Kind: KindExit, Value: float64(n % 3)})
					next++
					now += 0.5
				}
			case k == 13:
				flush()
				compareModel(t, at, r, m, capacity)
			case k == 14:
				flush()
				if got, want := r.Drain(), tail(m.events, capacity); !slices.Equal(got, want) {
					t.Fatalf("%s: Drain returned %d events, model %d", at, len(got), len(want))
				}
				m.events = nil
				compareModel(t, at, r, m, capacity)
			default:
				flush()
				r.Reset()
				m = newMapModel()
				compareModel(t, at, r, m, capacity)
			}
			if t.Failed() {
				return
			}
		}
		flush()
		compareModel(t, "end", r, m, capacity)
	})
}
