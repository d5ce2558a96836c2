package window

import (
	"fmt"
	"math"
	"testing"

	"clusterq/internal/stats"
)

// refSeries and refTail are the division-based estimators the Set's rings
// replace: every observation computes its bucket (or epoch) index as
// int64(t/slot) and its ring position with a modulo, and every roll of the
// tail allocates a fresh sketch. FuzzWindowMatchesReference holds the Set
// to them bit for bit.
type refSeries struct {
	slot float64
	cur  int64
	b    []bucket
}

func (s *refSeries) advance(t float64) {
	idx := int64(t / s.slot)
	if idx <= s.cur {
		return
	}
	if idx-s.cur >= int64(len(s.b)) {
		for i := range s.b {
			s.b[i] = bucket{}
		}
	} else {
		for i := s.cur + 1; i <= idx; i++ {
			s.b[i%int64(len(s.b))] = bucket{}
		}
	}
	s.cur = idx
}

func (s *refSeries) addEvent(t float64) {
	s.advance(t)
	s.b[s.cur%int64(len(s.b))].events++
}

func (s *refSeries) addValue(t, v float64) {
	s.advance(t)
	bk := &s.b[s.cur%int64(len(s.b))]
	bk.vsum += v
	bk.vn++
}

func (s *refSeries) sum(t float64) bucket {
	s.advance(t)
	var tot bucket
	for _, bk := range s.b {
		tot.events += bk.events
		tot.vsum += bk.vsum
		tot.vn += bk.vn
	}
	return tot
}

func (s *refSeries) covered(t float64) float64 {
	w := float64(len(s.b)) * s.slot
	if t < w {
		return t
	}
	return w
}

type refTail struct {
	p     float64
	width float64
	epoch int64
	cur   *stats.P2Quantile
	prev  *stats.P2Quantile
}

func (q *refTail) roll(t float64) {
	e := int64(t / q.width)
	if e <= q.epoch {
		return
	}
	if e == q.epoch+1 {
		q.prev = q.cur
	} else {
		q.prev = nil
	}
	q.cur = stats.NewP2Quantile(q.p)
	q.epoch = e
}

func (q *refTail) add(t, v float64) {
	q.roll(t)
	q.cur.Add(v)
}

func (q *refTail) value(t float64) float64 {
	q.roll(t)
	if q.cur.Count() >= tailMinSamples {
		return q.cur.Value()
	}
	if q.prev != nil && q.prev.Count() > 0 {
		return q.prev.Value()
	}
	if q.cur.Count() > 0 {
		return q.cur.Value()
	}
	return math.NaN()
}

// refSet is Set's observe and read surface over the reference estimators.
type refSet struct {
	cls   []*refSeries
	tiers []*refSeries
	tails []*refTail
}

func newRefSet(cfg Config, classes, tiers int) *refSet {
	slot := cfg.Width / float64(cfg.Buckets)
	r := &refSet{}
	for range classes {
		r.cls = append(r.cls, &refSeries{slot: slot, b: make([]bucket, cfg.Buckets)})
		r.tails = append(r.tails, &refTail{p: cfg.Quantile, width: cfg.Width, cur: stats.NewP2Quantile(cfg.Quantile)})
	}
	for range tiers {
		r.tiers = append(r.tiers, &refSeries{slot: slot, b: make([]bucket, cfg.Buckets)})
	}
	return r
}

func (r *refSet) observeArrival(t float64, class int) {
	if class >= 0 && class < len(r.cls) {
		r.cls[class].addEvent(t)
	}
}

func (r *refSet) observeSojourn(t float64, class int, d float64) {
	if class >= 0 && class < len(r.cls) {
		r.cls[class].addValue(t, d)
		r.tails[class].add(t, d)
	}
}

func (r *refSet) observeUtilization(t float64, tier int, u float64) {
	if tier >= 0 && tier < len(r.tiers) {
		r.tiers[tier].addValue(t, u)
	}
}

func (r *refSet) class(t float64, class int) ClassSensor {
	if class < 0 || class >= len(r.cls) {
		return ClassSensor{Rate: math.NaN(), MeanSojourn: math.NaN(), TailSojourn: math.NaN()}
	}
	sr := r.cls[class]
	tot := sr.sum(t)
	out := ClassSensor{Rate: math.NaN(), MeanSojourn: math.NaN(), TailSojourn: r.tails[class].value(t), Sojourns: tot.vn}
	if cov := sr.covered(t); cov > 0 {
		out.Rate = float64(tot.events) / cov
		out.Covered = cov
	}
	if tot.vn > 0 {
		out.MeanSojourn = tot.vsum / float64(tot.vn)
	}
	return out
}

func (r *refSet) rate(t float64, class int) float64 {
	if class < 0 || class >= len(r.cls) {
		return math.NaN()
	}
	sr := r.cls[class]
	tot := sr.sum(t)
	cov := sr.covered(t)
	if cov <= 0 {
		return math.NaN()
	}
	return float64(tot.events) / cov
}

func (r *refSet) utilization(t float64, tier int) float64 {
	if tier < 0 || tier >= len(r.tiers) {
		return math.NaN()
	}
	tot := r.tiers[tier].sum(t)
	if tot.vn == 0 {
		return math.NaN()
	}
	return tot.vsum / float64(tot.vn)
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzWindowMatchesReference drives a Set and the division-based reference
// with the same observations and requires the same Class, Rate, Rates and
// Utilization readings, bit for bit, at every read. Width is the fuzzed
// window width (10 when not positive), with 1+buckets%32 buckets, three
// classes and two tiers; class and tier arguments run one past each end.
//
// seq is read three bytes at a time: an operation and two arguments a and
// b. The operation's high nibble picks the time t:
//
//	0–5   now advances by a·slot·(nibble+1)/64
//	6     now advances by a·Width/8
//	7     now stands still
//	8     the bucket boundary k·slot, k = int64(now/slot) + a%4
//	9     the same boundary computed as k·Width/Buckets
//	10–11 one ulp below or above k·slot
//	12    a negative time, −a·slot/4
//	13    NaN
//	14    1e300, −1e300, +Inf or −Inf by a%4
//	15    one ulp below or above k·Width/Buckets, by a's parity
//
// Boundary times later than now become now; the others leave it alone. The
// low nibble picks the action: 0–4 an arrival of class b%5−1, 5–8 a
// sojourn b/8 of that class (NaN when b is 255), 9–11 a utilization b/255
// of tier b%4−1, 12–15 a read of every sensor at t. Operations past the
// first maxOps are ignored.
func FuzzWindowMatchesReference(f *testing.F) {
	// Width 1 in 3 buckets: the time one ulp below 3·slot = 1 already lies
	// in bucket 3, so a boundary taken as (cur+1)·slot without the search
	// keeps it in bucket 2, which the read two buckets later has expired.
	f.Add(1.0, uint8(2), []byte{0x80, 2, 1, 0xa0, 1, 1, 0xbc, 2, 0})
	f.Add(10.0, uint8(15), []byte{0x00, 10, 1, 0x05, 20, 9, 0x8c, 1, 0, 0xa0, 1, 2, 0xb5, 1, 3, 0x3c, 200, 0, 0x6c, 40, 0})
	f.Add(0.3, uint8(2), []byte{0x80, 1, 1, 0x9c, 1, 0, 0xa1, 2, 2, 0xbc, 2, 0, 0xf5, 3, 1, 0xfc, 2, 0, 0x49, 90, 7, 0x4c, 1, 0})
	f.Add(1e-300, uint8(6), []byte{0x10, 9, 1, 0xc6, 3, 30, 0xdc, 0, 0, 0xe0, 0, 1, 0xec, 1, 0, 0xec, 2, 0, 0x2c, 255, 0})
	f.Add(1e300, uint8(0), []byte{0x60, 255, 2, 0x66, 255, 8, 0x6c, 255, 0, 0xe6, 3, 255, 0x9c, 3, 0})
	f.Fuzz(func(t *testing.T, width float64, buckets uint8, seq []byte) {
		const classes, tiers, maxOps = 3, 2, 512
		if !(width > 0) {
			width = 10
		}
		cfg := Config{Width: width, Buckets: 1 + int(buckets%32), Quantile: 0.9}
		s, err := NewSet(cfg, classes, tiers)
		if err != nil {
			t.Fatal(err)
		}
		cfg = s.Config()
		ref := newRefSet(cfg, classes, tiers)
		slot := cfg.Width / float64(cfg.Buckets)
		now := 0.0
		rates, refRates := make([]float64, classes+1), make([]float64, classes+1)
		for i := 0; i+2 < len(seq) && i < 3*maxOps; i += 3 {
			op, a, b := seq[i], seq[i+1], seq[i+2]
			k := float64(int64(now/slot) + int64(a%4))
			var at float64
			switch mode := op >> 4; {
			case mode <= 5:
				now += float64(a) * slot * float64(mode+1) / 64
				at = now
			case mode == 6:
				now += float64(a) * cfg.Width / 8
				at = now
			case mode == 7:
				at = now
			case mode == 8:
				at = k * slot
			case mode == 9:
				at = k * cfg.Width / float64(cfg.Buckets)
			case mode == 10:
				at = math.Nextafter(k*slot, math.Inf(-1))
			case mode == 11:
				at = math.Nextafter(k*slot, math.Inf(1))
			case mode == 12:
				at = -float64(a) * slot / 4
			case mode == 13:
				at = math.NaN()
			case mode == 14:
				at = [...]float64{1e300, -1e300, math.Inf(1), math.Inf(-1)}[a%4]
			default:
				at = math.Nextafter(k*cfg.Width/float64(cfg.Buckets), math.Inf(2*int(a%2)-1))
			}
			if mode := op >> 4; mode >= 8 && mode <= 11 || mode == 15 {
				if at > now && !math.IsInf(at, 0) {
					now = at
				}
			}
			class := int(b%5) - 1
			switch act := op & 15; {
			case act <= 4:
				s.ObserveArrival(at, class)
				ref.observeArrival(at, class)
			case act <= 8:
				d := float64(b) / 8
				if b == 255 {
					d = math.NaN()
				}
				s.ObserveSojourn(at, class, d)
				ref.observeSojourn(at, class, d)
			case act <= 11:
				tier := int(b%4) - 1
				s.ObserveUtilization(at, tier, float64(b)/255)
				ref.observeUtilization(at, tier, float64(b)/255)
			default:
				where := fmt.Sprintf("op %d (%#x %d %d) at t=%v", i/3, op, a, b, at)
				for c := -1; c <= classes; c++ {
					got, want := s.Class(at, c), ref.class(at, c)
					if !sameBits(got.Rate, want.Rate) || !sameBits(got.MeanSojourn, want.MeanSojourn) ||
						!sameBits(got.TailSojourn, want.TailSojourn) || got.Sojourns != want.Sojourns ||
						!sameBits(got.Covered, want.Covered) {
						t.Fatalf("%s: Class(%d) = %+v, reference %+v", where, c, got, want)
					}
					if got, want := s.Rate(at, c), ref.rate(at, c); !sameBits(got, want) {
						t.Fatalf("%s: Rate(%d) = %v, reference %v", where, c, got, want)
					}
				}
				s.Rates(at, rates)
				for c := range refRates {
					refRates[c] = ref.rate(at, c)
					if !sameBits(rates[c], refRates[c]) {
						t.Fatalf("%s: Rates()[%d] = %v, reference %v", where, c, rates[c], refRates[c])
					}
				}
				for j := -1; j <= tiers; j++ {
					if got, want := s.Utilization(at, j), ref.utilization(at, j); !sameBits(got, want) {
						t.Fatalf("%s: Utilization(%d) = %v, reference %v", where, j, got, want)
					}
				}
			}
		}
	})
}
