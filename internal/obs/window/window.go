// Package window provides streaming sliding-window estimators over the
// simulator's event stream: per-class arrival rate, mean sojourn time, a
// P²-estimated tail quantile, and per-tier utilization. It is the sensor API
// the online (MPC-style) controller of ROADMAP item 1 will read mid-run, and
// it publishes its readings as gauges on an obs.Registry for live HTTP
// exposition.
//
// Estimators are bucketed rings: the window of width W is split into B
// sub-buckets, each accumulating counts/sums for one W/B slice of simulated
// time; advancing past a bucket boundary expires the oldest bucket. Reads
// therefore have bucket-granularity: a "window" is the last B live buckets,
// between W−W/B and W of history. The tail estimator cannot expire
// individual samples from a P² sketch, so it rotates a current/previous pair
// of sketches every W and reads whichever is better warmed — tail readings
// cover between W and 2W of history.
//
// A nil *Set is a no-op on every method (the observability layer's
// nil-is-a-no-op contract). Writers (Observe*/Publish) must come from a
// single goroutine — the simulator's replication 0 — but bound registry
// gauges are atomic, so concurrent HTTP readers are safe.
package window

import (
	"fmt"
	"math"
	"strings"

	"clusterq/internal/obs"
	"clusterq/internal/stats"
)

// Config parameterizes a window Set.
type Config struct {
	// Width is the sliding-window width in simulated seconds (required > 0).
	Width float64
	// Buckets is the number of sub-buckets per window (default 16).
	Buckets int
	// Quantile is the tail quantile estimated per class (default 0.99).
	Quantile float64
}

func (c Config) withDefaults() (Config, error) {
	if !(c.Width > 0) {
		return c, fmt.Errorf("window: width %g must be positive", c.Width)
	}
	if c.Buckets == 0 {
		c.Buckets = 16
	}
	if c.Buckets < 0 {
		return c, fmt.Errorf("window: buckets %d must be positive", c.Buckets)
	}
	if c.Quantile == 0 {
		c.Quantile = 0.99
	}
	if !(c.Quantile > 0 && c.Quantile < 1) {
		return c, fmt.Errorf("window: quantile %g must be in (0,1)", c.Quantile)
	}
	return c, nil
}

// bucket accumulates one sub-slice of the window: an event count and a
// value sum/count (meaning depends on the series).
type bucket struct {
	events int64
	vsum   float64
	vn     int64
}

// series is one bucketed ring. cur is the absolute index int64(t/slot) of
// the bucket currently being written, pos its ring position, and next the
// first time whose index exceeds cur: an observation before next lands in
// the current bucket at the cost of one compare, and only one at or past it
// (or a NaN) divides. Advancing clears expired buckets.
type series struct {
	slot float64
	cur  int64
	pos  int
	next float64
	b    []bucket
}

func newSeries(width float64, buckets int) *series {
	s := &series{slot: width / float64(buckets), b: make([]bucket, buckets)}
	s.next = boundary(s.cur, s.slot)
	return s
}

// boundaryMaxIndex bounds the indexes boundary searches after: below 2^52,
// cur+1 is exact in a float64 and the quotients near it are far from int64
// overflow, where the conversion stops being monotone.
const boundaryMaxIndex = 1 << 52

// boundarySteps bounds boundary's search; the first guess lies within a few
// ulps of the answer.
const boundarySteps = 64

// boundary returns the least time t whose index int64(t/div) exceeds cur,
// for a positive div. IEEE division is monotone in t and so is the
// conversion below int64 overflow, so every time below the result has index
// at most cur. The search starts at (cur+1)·div and walks one ulp at a time
// over the very expression the callers evaluate. Where the search cannot
// settle — cur too large, an overflowing product, too many steps — it
// returns −∞, so every observation takes the division path.
func boundary(cur int64, div float64) float64 {
	if cur < 0 || cur >= boundaryMaxIndex {
		return math.Inf(-1)
	}
	c := float64(cur+1) * div
	for n := 0; n < boundarySteps && !math.IsInf(c, 0); n++ {
		if int64(c/div) <= cur {
			c = math.Nextafter(c, math.Inf(1))
			continue
		}
		lo := math.Nextafter(c, math.Inf(-1))
		if int64(lo/div) <= cur {
			return c
		}
		c = lo
	}
	return math.Inf(-1)
}

// advance expires the buckets older than t's; before next, which is every
// observation but one per bucket, it is a compare.
func (s *series) advance(t float64) {
	if !(t < s.next) {
		s.step(t)
	}
}

// step is advance's division path: t is at or past next, or NaN.
func (s *series) step(t float64) {
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
	s.pos = int(idx % int64(len(s.b)))
	s.next = boundary(idx, s.slot)
}

func (s *series) addEvent(t float64) {
	s.advance(t)
	s.b[s.pos].events++
}

func (s *series) addValue(t, v float64) {
	s.advance(t)
	bk := &s.b[s.pos]
	bk.vsum += v
	bk.vn++
}

// sum totals the live buckets after expiring anything older than t.
func (s *series) sum(t float64) bucket {
	s.advance(t)
	var tot bucket
	for _, bk := range s.b {
		tot.events += bk.events
		tot.vsum += bk.vsum
		tot.vn += bk.vn
	}
	return tot
}

// covered is the stretch of history the live buckets span at time t: the
// full ring once t exceeds it, everything so far before that.
func (s *series) covered(t float64) float64 {
	w := float64(len(s.b)) * s.slot
	if t < w {
		return t
	}
	return w
}

// tailMinSamples is the sketch warm-up threshold: below it the current
// epoch's sketch is considered too cold and the previous epoch is preferred.
const tailMinSamples = 8

// tail estimates a quantile over roughly the last window by rotating P²
// sketches every window width. sk holds the current sketch at sk[cur] and
// the previous epoch's at sk[cur^1], which counts only when warm; a roll
// retires the previous sketch by copying fresh over it. next is the first
// time of the next epoch, as in series.
type tail struct {
	width float64
	epoch int64
	next  float64
	cur   int
	warm  bool
	sk    [2]stats.P2Quantile
	fresh stats.P2Quantile
}

func newTail(p, width float64) *tail {
	q := &tail{width: width, fresh: *stats.NewP2Quantile(p)}
	q.sk[0] = q.fresh
	q.next = boundary(0, width)
	return q
}

func (q *tail) roll(t float64) {
	if !(t < q.next) {
		q.step(t)
	}
}

// step is roll's division path: t is at or past next, or NaN.
func (q *tail) step(t float64) {
	e := int64(t / q.width)
	if e <= q.epoch {
		return
	}
	// The current sketch becomes the previous one only if its epoch
	// directly precedes e; otherwise a whole epoch passed with no samples.
	q.warm = e == q.epoch+1
	if q.warm {
		q.cur ^= 1
	}
	q.sk[q.cur] = q.fresh
	q.epoch = e
	q.next = boundary(e, q.width)
}

func (q *tail) add(t, v float64) {
	q.roll(t)
	q.sk[q.cur].Add(v)
}

func (q *tail) value(t float64) float64 {
	q.roll(t)
	cur, prev := &q.sk[q.cur], &q.sk[q.cur^1]
	if cur.Count() >= tailMinSamples {
		return cur.Value()
	}
	if q.warm && prev.Count() > 0 {
		return prev.Value()
	}
	if cur.Count() > 0 {
		return cur.Value()
	}
	return math.NaN()
}

// ClassSensor is one class's windowed readings at a point in time.
type ClassSensor struct {
	// Rate is the estimated arrival rate λ̂ (arrivals per second over the
	// covered window).
	Rate float64
	// MeanSojourn is the mean sojourn of spans that closed in the window
	// (NaN if none closed).
	MeanSojourn float64
	// TailSojourn is the P²-estimated Quantile of sojourns (NaN until
	// samples arrive).
	TailSojourn float64
	// Sojourns is the number of closed-span observations in the window.
	Sojourns int64
	// Covered is the stretch of history (seconds) behind Rate: the full
	// window once enough time has passed, everything so far before that.
	// Controllers can use it to discount cold estimates.
	Covered float64
}

// Set is a bank of window estimators for a fixed number of classes and
// tiers. Construct with NewSet; a nil *Set is a no-op on every method.
type Set struct {
	cfg   Config
	cls   []*series // per class: events = arrivals, values = sojourns
	tiers []*series // per tier: values = utilization samples
	tails []*tail

	reg   *obs.Registry
	rateG []*obs.Gauge
	meanG []*obs.Gauge
	tailG []*obs.Gauge
	utilG []*obs.Gauge
}

// NewSet builds a window Set for the given class and tier counts.
func NewSet(cfg Config, classes, tiers int) (*Set, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if classes < 0 || tiers < 0 {
		return nil, fmt.Errorf("window: negative dimensions (%d classes, %d tiers)", classes, tiers)
	}
	s := &Set{cfg: cfg}
	for k := 0; k < classes; k++ {
		s.cls = append(s.cls, newSeries(cfg.Width, cfg.Buckets))
		s.tails = append(s.tails, newTail(cfg.Quantile, cfg.Width))
	}
	for j := 0; j < tiers; j++ {
		s.tiers = append(s.tiers, newSeries(cfg.Width, cfg.Buckets))
	}
	return s, nil
}

// Config returns the (defaulted) configuration.
func (s *Set) Config() Config {
	if s == nil {
		return Config{}
	}
	return s.cfg
}

// Classes returns the number of class sensors.
func (s *Set) Classes() int {
	if s == nil {
		return 0
	}
	return len(s.cls)
}

// Tiers returns the number of tier sensors.
func (s *Set) Tiers() int {
	if s == nil {
		return 0
	}
	return len(s.tiers)
}

// ObserveArrival records one class-k arrival at time t.
func (s *Set) ObserveArrival(t float64, class int) {
	if s == nil || class < 0 || class >= len(s.cls) {
		return
	}
	s.cls[class].addEvent(t)
}

// ObserveSojourn records a closed span's sojourn d for class k at time t.
func (s *Set) ObserveSojourn(t float64, class int, d float64) {
	if s == nil || class < 0 || class >= len(s.cls) {
		return
	}
	s.cls[class].addValue(t, d)
	s.tails[class].add(t, d)
}

// ObserveUtilization records a sampled utilization for tier j at time t.
func (s *Set) ObserveUtilization(t float64, tier int, util float64) {
	if s == nil || tier < 0 || tier >= len(s.tiers) {
		return
	}
	s.tiers[tier].addValue(t, util)
}

// Class reads class k's sensors as of time t.
func (s *Set) Class(t float64, class int) ClassSensor {
	if s == nil || class < 0 || class >= len(s.cls) {
		return ClassSensor{Rate: math.NaN(), MeanSojourn: math.NaN(), TailSojourn: math.NaN()}
	}
	sr := s.cls[class]
	tot := sr.sum(t)
	out := ClassSensor{
		Rate:        math.NaN(),
		MeanSojourn: math.NaN(),
		TailSojourn: s.tails[class].value(t),
		Sojourns:    tot.vn,
	}
	if cov := sr.covered(t); cov > 0 {
		out.Rate = float64(tot.events) / cov
		out.Covered = cov
	}
	if tot.vn > 0 {
		out.MeanSojourn = tot.vsum / float64(tot.vn)
	}
	return out
}

// Rate returns class k's windowed arrival-rate estimate λ̂ as of time t —
// the single-number read an online controller re-estimates from each epoch.
// NaN when the receiver is nil, the class is out of range, or the window has
// no coverage yet.
func (s *Set) Rate(t float64, class int) float64 {
	if s == nil || class < 0 || class >= len(s.cls) {
		return math.NaN()
	}
	sr := s.cls[class]
	tot := sr.sum(t)
	cov := sr.covered(t)
	if cov <= 0 {
		return math.NaN()
	}
	return float64(tot.events) / cov
}

// Rates fills dst with every class's windowed arrival-rate estimate as of
// time t and returns it. Entries beyond the class count — or all of them, on
// a nil Set — are NaN, so callers can size dst for the cluster and treat NaN
// uniformly as "no estimate".
func (s *Set) Rates(t float64, dst []float64) []float64 {
	if s == nil {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return dst
	}
	for i := range dst {
		dst[i] = math.NaN()
	}
	for k := 0; k < len(s.cls) && k < len(dst); k++ {
		dst[k] = s.Rate(t, k)
	}
	return dst
}

// Utilization reads tier j's mean sampled utilization over the window as of
// time t (NaN if no samples are live).
func (s *Set) Utilization(t float64, tier int) float64 {
	if s == nil || tier < 0 || tier >= len(s.tiers) {
		return math.NaN()
	}
	tot := s.tiers[tier].sum(t)
	if tot.vn == 0 {
		return math.NaN()
	}
	return tot.vsum / float64(tot.vn)
}

// quantileLabel renders 0.99 as "p99", 0.999 as "p99_9" (gauge-name safe).
func quantileLabel(q float64) string {
	return "p" + strings.ReplaceAll(fmt.Sprintf("%g", q*100), ".", "_")
}

// QuantileLabel is the metric-name-safe label of the configured tail
// quantile ("p99" for 0.99), as used in the bound gauge names.
func (c Config) QuantileLabel() string {
	return quantileLabel(c.Quantile)
}

// Bind registers this Set's gauges on reg; Publish refreshes them. Gauge
// names: window_class<k>_arrival_rate, window_class<k>_mean_sojourn_seconds,
// window_class<k>_<p99>_sojourn_seconds, window_tier<j>_utilization, plus
// window_width_seconds.
func (s *Set) Bind(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	s.reg = reg
	s.rateG = s.rateG[:0]
	s.meanG = s.meanG[:0]
	s.tailG = s.tailG[:0]
	s.utilG = s.utilG[:0]
	pl := quantileLabel(s.cfg.Quantile)
	for k := range s.cls {
		s.rateG = append(s.rateG, reg.Gauge(
			fmt.Sprintf("window_class%d_arrival_rate", k),
			fmt.Sprintf("class %d arrivals per second over the sliding window", k)))
		s.meanG = append(s.meanG, reg.Gauge(
			fmt.Sprintf("window_class%d_mean_sojourn_seconds", k),
			fmt.Sprintf("class %d mean sojourn over the sliding window", k)))
		s.tailG = append(s.tailG, reg.Gauge(
			fmt.Sprintf("window_class%d_%s_sojourn_seconds", k, pl),
			fmt.Sprintf("class %d %s sojourn (P² estimate) over the sliding window", k, pl)))
	}
	for j := range s.tiers {
		s.utilG = append(s.utilG, reg.Gauge(
			fmt.Sprintf("window_tier%d_utilization", j),
			fmt.Sprintf("tier %d mean sampled utilization over the sliding window", j)))
	}
	reg.Gauge("window_width_seconds", "sliding-window width").Set(s.cfg.Width)
}

// Publish refreshes every bound gauge with readings as of time t. A no-op
// until Bind is called.
func (s *Set) Publish(t float64) {
	if s == nil || s.reg == nil {
		return
	}
	for k := range s.cls {
		cs := s.Class(t, k)
		s.rateG[k].Set(cs.Rate)
		s.meanG[k].Set(cs.MeanSojourn)
		s.tailG[k].Set(cs.TailSojourn)
	}
	for j := range s.tiers {
		s.utilG[j].Set(s.Utilization(t, j))
	}
}
