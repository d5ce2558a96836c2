package stats

import (
	"fmt"
	"math"
	"sort"
)

// P2Quantile estimates a single quantile of a stream without storing the
// observations, using the P² algorithm of Jain & Chlamtac (1985). It keeps
// five markers whose heights converge to the quantile as observations arrive.
type P2Quantile struct {
	p       float64
	count   int64
	heights [5]float64 // marker heights
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	inc     [5]float64 // desired position increments per observation
	initial []float64  // first five observations, before initialization
}

// NewP2Quantile creates an estimator for the p-quantile, 0 < p < 1.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: P2 quantile probability %g out of (0,1)", p))
	}
	return &P2Quantile{
		p:       p,
		inc:     [5]float64{0, p / 2, p, (1 + p) / 2, 1},
		initial: make([]float64, 0, 5),
	}
}

// Count returns the number of observations seen.
func (q *P2Quantile) Count() int64 { return q.count }

// Add incorporates one observation.
func (q *P2Quantile) Add(x float64) {
	q.count++
	if len(q.initial) < 5 {
		q.initial = append(q.initial, x)
		if len(q.initial) == 5 {
			sort.Float64s(q.initial)
			copy(q.heights[:], q.initial)
			for i := 0; i < 5; i++ {
				q.pos[i] = float64(i + 1)
			}
			q.want = [5]float64{1, 1 + 2*q.p, 1 + 4*q.p, 3 + 2*q.p, 5}
		}
		return
	}

	// Find the cell k containing x and update extreme heights.
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.want[i] += q.inc[i]
	}

	// Adjust interior markers if they drifted from their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := q.parabolic(i, sign)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

// parabolic performs the piecewise-parabolic (P²) height prediction.
func (q *P2Quantile) parabolic(i int, d float64) float64 {
	num1 := q.pos[i] - q.pos[i-1] + d
	num2 := q.pos[i+1] - q.pos[i] - d
	den := q.pos[i+1] - q.pos[i-1]
	t1 := (q.heights[i+1] - q.heights[i]) / (q.pos[i+1] - q.pos[i])
	t2 := (q.heights[i] - q.heights[i-1]) / (q.pos[i] - q.pos[i-1])
	return q.heights[i] + d/den*(num1*t1+num2*t2)
}

// linear is the fallback linear height prediction.
func (q *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.heights[i] + d*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to the empirical quantile of what it has; with
// none it returns NaN.
func (q *P2Quantile) Value() float64 {
	if q.count == 0 {
		return math.NaN()
	}
	if len(q.initial) < 5 {
		s := append([]float64(nil), q.initial...)
		sort.Float64s(s)
		// Nearest-rank, matching ExactQuantile: small-sample estimates must
		// agree with the exact definition tests compare against.
		idx := int(math.Ceil(q.p*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		return s[idx]
	}
	return q.heights[2]
}

// QuantileSet tracks several quantiles of the same stream.
type QuantileSet struct {
	est []*P2Quantile
}

// NewQuantileSet creates estimators for each probability.
func NewQuantileSet(ps ...float64) *QuantileSet {
	s := &QuantileSet{est: make([]*P2Quantile, len(ps))}
	for i, p := range ps {
		s.est[i] = NewP2Quantile(p)
	}
	return s
}

// Add incorporates one observation into every estimator.
func (s *QuantileSet) Add(x float64) {
	for _, e := range s.est {
		e.Add(x)
	}
}

// Value returns the estimate for the quantile with probability p, or NaN if
// no estimator was configured for p.
func (s *QuantileSet) Value(p float64) float64 {
	for _, e := range s.est {
		//lint:waive floateq reason="deliberate exact compare: p is a lookup key copied verbatim from configuration" until=2027-08-01
		if e.p == p {
			return e.Value()
		}
	}
	return math.NaN()
}

// ExactQuantile returns the empirical q-quantile of data (using the nearest-
// rank definition on a sorted copy). It is O(n log n) and intended for tests
// and small samples.
func ExactQuantile(data []float64, p float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
