package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
	"clusterq/internal/power"
)

// This file implements the Lagrangian dual decomposition behind every
// solver: C2 (MinimizeDelay), C3a (MinimizeEnergy), C3b
// (MinimizeEnergyPerClass), MinimizeEnergyTail and C4's speed tuning. Under
// the Poisson-arrival coupling each tier's response times depend only on
// that tier's speed, so every mean quantity these problems constrain or
// minimize is a sum of per-tier terms:
//
//	D_k(s) = Σ_j v_kj·r_kj(s_j)   (class k's mean end-to-end delay)
//	P(s)   = Σ_j g_j(s_j)         (average power of tier j)
//
// and so is any weighted delay Σ_k w_k·D_k. The Lagrangian of each problem
// therefore splits into J independent one-dimensional tier problems
//
//	min_{s_j} α·g_j(s_j) + Σ_k θ_k·v_kj·r_kj(s_j)
//
// solved globally on the tier's speed range. All three problems are one
// dualProblem — an objective row and constraint rows over (P, D_1…D_K) —
// with one multiplier per constraint row: C2 bounds the power, C3a the
// weighted delay, C3b each class's delay. One projected Newton ascent on the
// concave dual function finds the multipliers. A power table that is not
// convex in 1/s splits the speed box into convex parts, each solved by the
// dual (solveParts). The results are exact for the separable model. A
// percentile bound is not separable; solveSLA adds it as a tail row over
// per-tier weights of the class's response times, re-linearized at every
// iterate until the power settles.

// tierFn is one tier's separable share of the model: the cluster's tier
// model (cluster.TierModel), built once per solve, with the tier's tail
// weights, the knots of its power curve and the memo of its evaluations.
type tierFn struct {
	m     cluster.TierModel
	tailW []float64 // per-class tail weights w_kj; nil without tail rows
	knots []float64 // lo, the power curve's kinks inside (lo, hi), hi
	warm  []float64 // per piece between knots, its last interior minimizer (NaN: none yet)
	memo  tierMemo
}

func newTierFn(m cluster.TierModel, lo, hi float64) tierFn {
	knots := []float64{lo}
	// A table model's busy power has kinks at its listed speeds.
	if tb, ok := m.Power.(*power.Table); ok {
		for _, s := range tb.Speeds {
			if s > lo && s < hi {
				knots = append(knots, s)
			}
		}
	}
	f := tierFn{m: m}
	f.setKnots(append(knots, hi))
	return f
}

// setKnots sets the tier's knots and forgets every piece's warm start.
func (f *tierFn) setKnots(knots []float64) {
	f.knots = knots
	f.warm = make([]float64, len(knots)-1)
	for i := range f.warm {
		f.warm[i] = math.NaN()
	}
}

// A solve evaluates many tier speeds more than once: pieceMin judges each
// piece's ends at the same four speeds at every dual point, evalAt and
// curvature revisit the speed argmin settled on, and the next dual point's
// warm start begins there. So each tier keeps a memo of its evaluations for
// the solve, and such a speed is evaluated once. An entry holds the tier's
// power and response times and, when an evaluation asked for them, their
// derivatives in the speed; none of it depends on the multipliers. The memo
// is keyed by the speed's bits, not its value: -0 and +0, or NaNs of
// different payloads, are different inputs to TierModel.Eval, and a hit
// returns exactly what Eval would.

// memoRing is how many recently evaluated speeds a tier's memo keeps besides
// its end checks: a warm-started Newton iteration's few points, the last of
// them the minimizer that evalAt, curvature and the next warm start revisit.
// One entry would do for a tier of one piece; a power table's pieces each
// leave a minimizer, and four entries save a few evaluations there.
const memoRing = 4

// memoEntry is one memoised tier evaluation.
type memoEntry struct {
	key              uint64 // math.Float64bits of the speed
	full, ok, slopes bool   // evaluated; eval's ok there; with derivatives
	pow              float64
	resp             []float64 // K long
	d1, d2           []float64 // K+1 long: TierModel.Eval's derivatives
}

// tierMemo holds one tier's evaluations within a solve. Its first pins
// entries are keyed in advance by pieceMin's end-check speeds on the tier's
// pieces (endChecks) and keep their evaluations for the solve; the others
// are a ring of the latest evaluations at any other speed.
type tierMemo struct {
	e    []memoEntry
	pins int
	next int // the ring entry, counted from pins, the next miss overwrites
}

// at returns the memo's entry for nominal speed s, evaluating the tier there
// unless the memo holds it, with the derivatives when slopes is set (an
// entry without them is evaluated again when they are asked for). The
// entry's ok is false when the model rejects s or a class visiting the tier
// has an unbounded response time. The entry belongs to the memo: it is
// valid until the next call.
func (f *tierFn) at(s float64, slopes bool) *memoEntry {
	key := math.Float64bits(s)
	mm := &f.memo
	slot := -1
	for i := range mm.e {
		if e := &mm.e[i]; e.key == key && (e.full || i < mm.pins) {
			if e.full && (e.slopes || !slopes) {
				return e
			}
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = mm.pins + mm.next
		if mm.next++; mm.pins+mm.next == len(mm.e) {
			mm.next = 0
		}
	}
	e := &mm.e[slot]
	var d1, d2 []float64
	if slopes {
		d1, d2 = e.d1, e.d2
	}
	_, r, tm, err := f.m.Eval(s, d1, d2)
	e.key, e.full, e.ok, e.slopes, e.pow = key, true, err == nil, slopes, 0
	for k, v := range f.m.Visits {
		if e.ok && v > 0 && math.IsInf(r[k], 1) {
			e.ok = false
		}
	}
	if e.ok {
		copy(e.resp, r)
		e.pow = tm.Power.Static + tm.Power.Dynamic
	}
	return e
}

// eval returns the tier's average power and per-class response times at
// nominal speed s, and whether they are finite (at). resp belongs to the
// memo: it is valid until the next evaluation.
func (f *tierFn) eval(s float64) (pow float64, resp []float64, ok bool) {
	e := f.at(s, false)
	if !e.ok {
		return 0, nil, false
	}
	return e.pow, e.resp, true
}

// lagrangian returns L(s) = α·g_j(s) + Σ_k θ_k·v_kj·r_kj(s) (+ the tail
// terms, see weigh), +Inf where the tier is unstable, and with slopes its
// first and second derivatives in s, from the same evaluation.
func (f *tierFn) lagrangian(s float64, slopes bool, alpha float64, theta []float64) (l, l1, l2 float64) {
	e := f.at(s, slopes)
	if !e.ok {
		return math.Inf(1), math.NaN(), math.NaN()
	}
	l = f.weigh(alpha*e.pow, theta, e.resp)
	if slopes {
		nk := len(e.resp)
		l1 = f.weigh(alpha*e.d1[nk], theta, e.d1[:nk])
		l2 = f.weigh(alpha*e.d2[nk], theta, e.d2[:nk])
	}
	return l, l1, l2
}

// weigh adds the tier's delay terms Σ_k θ_k·v_kj·r_kj to l and, with tail
// rows, Σ_k θ_(K+k)·w_kj·v_kj·r_kj. Derivatives of r weigh the same way.
func (f *tierFn) weigh(l float64, theta, resp []float64) float64 {
	nk := len(f.m.Visits)
	for k, v := range f.m.Visits {
		if v > 0 {
			l += theta[k] * v * resp[k]
			if f.tailW != nil {
				l += theta[nk+k] * f.tailW[k] * v * resp[k]
			}
		}
	}
	return l
}

// interior reports whether s lies strictly between two of the tier's knots:
// off its speed limits and off every kink of its power curve.
func (f *tierFn) interior(s float64) bool {
	for i := 1; i < len(f.knots); i++ {
		if s > f.knots[i-1] && s < f.knots[i] {
			return true
		}
	}
	return false
}

// argmin returns the global minimizer of the tier Lagrangian over its speed
// range, the best of its minimizers between consecutive knots. Between knots
// the Lagrangian is convex in the service time u = 1/s: the power term is a
// multiple of u^(1−γ) (power law), constant (linear) or affine in u (a table
// segment), and every response time is convex in u. So it is unimodal in s
// there, and pieceMin applies, started from the piece's last interior
// minimizer: successive calls come from nearby multipliers.
func (f *tierFn) argmin(alpha float64, theta []float64) float64 {
	obj := func(s float64, slopes bool) (float64, float64, float64) {
		return f.lagrangian(s, slopes, alpha, theta)
	}
	best, bestF := f.knots[0], math.Inf(1)
	for i := 1; i < len(f.knots); i++ {
		a, b := f.knots[i-1], f.knots[i]
		x, v := pieceMin(obj, a, b, f.warm[i-1])
		if x > a && x < b {
			f.warm[i-1] = x
		}
		if v < bestF {
			best, bestF = x, v
		}
	}
	return best
}

// pieceMin returns the minimizer of a function unimodal on [a, b] and the
// function's value there: an end where the slope points out of the interval,
// otherwise the root of the slope, by Newton steps safeguarded by bisection
// of the bracket. obj returns the function's value at x and, when slopes is
// set, its first and second derivatives there; each Newton step takes one
// such evaluation, and the slope's sign narrows the bracket. The steps start
// from x0 when it lies inside (a, b), else from the midpoint. Root-finding
// on the slope resolves the speed to rounding, where comparing function
// values (golden section) stalls at √ε relative — too coarse for the C3b
// dual, whose bound residuals move with the speeds. The ends are judged by
// values alone, one-sided quotients 1e-9 of the end wide (a solve's memo
// keeps them), so a kink at either end does not leak in. A Newton step of
// at most 1e-12 of the speed has converged, and the point it starts from is
// returned with the value already computed there: where rounding noise
// decides the slope's sign, such a step can round onto the bracket's end at
// that point, and bisection would then halve the bracket down to 1e-12 of
// the speed. The value is computed afresh only at a point not evaluated
// yet.
func pieceMin(obj func(x float64, slopes bool) (fx, d1, d2 float64), a, b, x0 float64) (x, fx float64) {
	val := func(x float64) float64 {
		v, _, _ := obj(x, false)
		return v
	}
	if !(b > a) {
		return a, val(a)
	}
	e := endChecks(a, b)
	fa := val(e[0])
	if !((val(e[1])-fa)/(1e-9*a) < 0) {
		return a, fa
	}
	fb := val(e[3])
	if !((fb-val(e[2]))/(1e-9*b) > 0) {
		return b, fb
	}
	x = a + (b-a)/2
	if x0 > a && x0 < b {
		x = x0
	}
	for i := 0; i < 100 && b-a > 1e-12*b; i++ {
		v, d1, d2 := obj(x, true)
		if d1 < 0 {
			a = x
		} else {
			b = x
		}
		next := a + (b-a)/2
		if d2 > 0 {
			newton := x - d1/d2
			if math.Abs(newton-x) <= 1e-12*x {
				return x, v
			}
			if newton > a && newton < b {
				next = newton
			}
		}
		if math.Abs(next-x) <= 1e-12*x {
			return next, val(next)
		}
		x = next
	}
	return x, val(x)
}

// endChecks returns the speeds at which pieceMin judges the ends of [a, b]:
// a, a point 1e-9 of a above it, a point 1e-9 of b below b, and b.
func endChecks(a, b float64) [4]float64 {
	return [4]float64{a, a + 1e-9*a, b - 1e-9*b, b}
}

// tierFns holds the tier functions of one cluster. A solve reads the
// cluster and never writes it.
type tierFns struct {
	c     *cluster.Cluster
	ms    []cluster.TierModel // c's tier models, which the tiers' models copy
	tiers []tierFn
	lo    []float64
	hi    []float64
	wBy   []float64 // per-class weights, normalized to sum 1
}

// newTierFns prepares the decomposition for the cluster, weighting each
// class by its arrival rate. Validate accepts a cluster whose classes all
// have rate zero; that leaves no delay to weight, so it is rejected here.
func newTierFns(c *cluster.Cluster) (*tierFns, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	w := c.Lambdas()
	var sum float64
	for _, v := range w {
		sum += v
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("core: arrival rates sum to %g, want a positive total", sum)
	}
	wn := make([]float64, len(w))
	for i, v := range w {
		wn[i] = v / sum
	}
	ms := c.TierModels()
	lo, hi := cluster.ModelSpeedBounds(c, ms)
	tiers := make([]tierFn, len(ms))
	for j, m := range ms {
		tiers[j] = newTierFn(m, lo[j], hi[j])
	}
	t := &tierFns{c: c, ms: ms, tiers: tiers, lo: lo, hi: hi, wBy: wn}
	t.resetMemos()
	return t, nil
}

// resetMemos gives every tier an empty memo whose pinned entries are keyed
// by the end checks of the tier's pieces, with one buffer for all entries'
// response times and derivatives. A tier's knots or model may change only
// before it evaluates anything, or with a reset after: convexParts resets
// each part it cuts.
func (t *tierFns) resetMemos() {
	nk := len(t.wBy)
	size := func(f *tierFn) int { return 4*(len(f.knots)-1) + memoRing }
	n := 0
	for j := range t.tiers {
		n += size(&t.tiers[j])
	}
	w := 3*nk + 2 // an entry's response times and their derivatives
	es, buf := make([]memoEntry, n), make([]float64, n*w)
	for i := range es {
		b := buf[i*w : (i+1)*w : (i+1)*w]
		es[i].resp, es[i].d1, es[i].d2 = b[:nk:nk], b[nk:2*nk+1:2*nk+1], b[2*nk+1:]
	}
	for j := range t.tiers {
		f := &t.tiers[j]
		m := tierMemo{e: es[:size(f):size(f)]}
		es = es[size(f):]
		for i := 1; i < len(f.knots); i++ {
			for _, s := range endChecks(f.knots[i-1], f.knots[i]) {
				key := math.Float64bits(s)
				pinned := false
				for _, e := range m.e[:m.pins] {
					pinned = pinned || e.key == key
				}
				if !pinned {
					m.e[m.pins].key = key
					m.pins++
				}
			}
		}
		f.memo = m
	}
}

// concaveKinks returns the speeds inside the tier's range at which its power
// curve is concave in the service time u = 1/s. A table segment
// B(s) = α + β·s draws dynamic power Λ·((α − idle)·u + β) in u, with Λ the
// tier's work rate, so a kink is concave in u where the intercept α rises
// from the segment below it to the segment above. Power laws and linear
// models have none.
func (f *tierFn) concaveKinks() []float64 {
	tb, ok := f.m.Power.(*power.Table)
	if !ok {
		return nil
	}
	lo, hi := f.knots[0], f.knots[len(f.knots)-1]
	n := len(tb.Speeds)
	var kinks []float64
	below := tb.BusyW[0] // flat below the first listed speed
	for i, s := range tb.Speeds {
		above := tb.BusyW[n-1] // flat above the last
		if i+1 < n {
			above = tb.BusyW[i] - s*(tb.BusyW[i+1]-tb.BusyW[i])/(tb.Speeds[i+1]-s)
		}
		if above > below && s > lo && s < hi {
			kinks = append(kinks, s)
		}
		below = above
	}
	return kinks
}

// maxConvexParts caps how many speed boxes convexParts enumerates.
const maxConvexParts = 64

// convexParts splits the speed box into boxes on which every tier's power
// curve is convex in 1/s, so the C3b dual over each has no gap: every
// combination of the stretches between each tier's concave kinks. Without
// such kinks — power laws, linear models, convex tables — it returns t
// itself. Past maxConvexParts combinations it also returns t alone.
func (t *tierFns) convexParts() []*tierFns {
	cuts := make([][]float64, len(t.tiers))
	n := 1
	for j := range t.tiers {
		cuts[j] = t.tiers[j].concaveKinks()
		if n *= len(cuts[j]) + 1; n > maxConvexParts {
			return []*tierFns{t}
		}
	}
	if n == 1 {
		return []*tierFns{t}
	}
	for j := range cuts {
		cuts[j] = append(append([]float64{t.lo[j]}, cuts[j]...), t.hi[j])
	}
	parts := make([]*tierFns, 0, n)
	pick := make([]int, len(t.tiers))
	for {
		u := *t
		u.lo, u.hi = make([]float64, len(t.tiers)), make([]float64, len(t.tiers))
		u.tiers = append([]tierFn(nil), t.tiers...)
		for j, i := range pick {
			lo, hi := cuts[j][i], cuts[j][i+1]
			u.lo[j], u.hi[j] = lo, hi
			knots := []float64{lo}
			for _, k := range t.tiers[j].knots {
				if k > lo && k < hi {
					knots = append(knots, k)
				}
			}
			u.tiers[j].setKnots(append(knots, hi))
		}
		u.resetMemos()
		parts = append(parts, &u)
		j := 0
		for ; j < len(pick); j++ {
			if pick[j]++; pick[j] < len(cuts[j])-1 {
				break
			}
			pick[j] = 0
		}
		if j == len(pick) {
			return parts
		}
	}
}

// evalAt fills delays with the per-class delays D_k at the given speeds,
// followed with tail rows by the tail sums W_k = Σ_j w_kj·v_kj·r_kj, and
// returns the total power. An unstable tier makes the power and the
// quantities of the classes visiting it +Inf.
func (t *tierFns) evalAt(speeds, delays []float64) float64 {
	clear(delays)
	nk := len(t.wBy)
	var pow float64
	for j := range t.tiers {
		f := &t.tiers[j]
		p, resp, ok := f.eval(speeds[j])
		if !ok {
			p = math.Inf(1)
		}
		pow += p
		for k, v := range f.m.Visits {
			switch {
			case v > 0 && !ok:
				delays[k] = math.Inf(1)
				if f.tailW != nil {
					delays[nk+k] = math.Inf(1)
				}
			case v > 0:
				delays[k] += v * resp[k]
				if f.tailW != nil {
					delays[nk+k] += f.tailW[k] * v * resp[k]
				}
			}
		}
	}
	return pow
}

// cheapest returns the speeds of least power: each tier at the minimizer of
// its power alone, which is its slowest speed wherever power rises with
// speed. A tier whose busy power grows less than in proportion to its speed
// (a table segment whose intercept lies above the idle power) spends less
// energy per job at a higher speed, and so draws less power.
func (t *tierFns) cheapest() []float64 {
	theta := make([]float64, t.width())
	s := make([]float64, len(t.tiers))
	for j := range t.tiers {
		s[j] = t.tiers[j].argmin(1, theta)
	}
	return s
}

// uniform sets s to the speeds a fraction f of the way from every tier's
// slowest speed to its fastest, the speed baselines' one knob, and returns
// it.
func (t *tierFns) uniform(f float64, s []float64) []float64 {
	for i := range s {
		s[i] = t.lo[i] + f*(t.hi[i]-t.lo[i])
	}
	return s
}

// width returns the number of quantities after the power: the K class
// delays, and the K tail sums when the tiers carry tail weights.
func (t *tierFns) width() int {
	if t.tiers[0].tailW != nil {
		return 2 * len(t.wBy)
	}
	return len(t.wBy)
}

// powerRow returns the row (1, 0…) that weighs the power P alone.
func (t *tierFns) powerRow() []float64 {
	r := make([]float64, 1+t.width())
	r[0] = 1
	return r
}

// delayRow returns the row (0, w) that weighs the normalized weighted delay
// Σ_k w_k·D_k.
func (t *tierFns) delayRow() []float64 {
	return append([]float64{0}, t.wBy...)
}

// dualProblem is one separable problem over the quantities x = (P, D_1…D_K),
// extended by (W_1…W_K) when some class carries a tail row, index 0
// weighing the power:
//
//	min_s obj·x(s)   s.t.   row_i·x(s) ≤ b_i   for every row with b_i > 0.
//
// A bound ≤ 0 leaves its row out. C3b bounds each class with a unit row and
// minimizes (1, 0…); C3a bounds (0, w) and minimizes (1, 0…); C2 bounds
// (1, 0…) by the budget and minimizes (0, w). A tail row bounds one W_k
// (solveSLA).
type dualProblem struct {
	obj    []float64
	rows   [][]float64
	bounds []float64
}

// dot returns r·(pow, delays). Zero coefficients are skipped, so an unstable
// tier's +Inf never meets one as 0·Inf = NaN.
func dot(r []float64, pow float64, delays []float64) float64 {
	var v float64
	if r[0] != 0 {
		v = r[0] * pow
	}
	for k, d := range delays {
		if r[k+1] != 0 {
			v += r[k+1] * d
		}
	}
	return v
}

// weights sets theta to the tier Lagrangian's delay weights at ν and returns
// its power weight: (α, θ) = obj + Σ_i ν_i·row_i/b_i.
func (pr *dualProblem) weights(nu, theta []float64) (alpha float64) {
	alpha = pr.obj[0]
	copy(theta, pr.obj[1:])
	for i, r := range pr.rows {
		if b := pr.bounds[i]; b > 0 && nu[i] != 0 {
			alpha += nu[i] * r[0] / b
			for k := range theta {
				theta[k] += nu[i] * r[k+1] / b
			}
		}
	}
	return alpha
}

// dualPoint is the dual at one multiplier vector ν: the per-tier Lagrangian
// minimizers and what they achieve.
type dualPoint struct {
	nu, speeds []float64
	viol       []float64 // row_i·x/b_i − 1 for live rows, 0 otherwise
	obj        float64   // obj·x
	q          float64   // dual function value obj·x + Σ_i ν_i·viol_i
}

// kkt returns the point's largest relative bound excess and its duality gap
// Σ_i ν_i·|viol_i| (complementary slackness).
func (p *dualPoint) kkt() (excess, gap float64) {
	for i, v := range p.viol {
		excess = math.Max(excess, v)
		gap += p.nu[i] * math.Abs(v)
	}
	return excess, gap
}

// dualWork is one dual ascent's scratch, sized once for its rows so that
// its iterations allocate nothing. It holds three points to rotate, since
// the current point, the candidate and the best feasible point can all be
// live at once, and the buffers of at, curvature and dampedSolve.
type dualWork struct {
	pts    [3]dualPoint
	corner dualPoint   // the least constrained point, at ν = 0
	theta  []float64   // the tier weights, then at's quantities
	next   []float64   // the candidate multipliers
	g, u   []float64   // per active row: the dual's gradient; a tier's slopes
	x      []float64   // dampedSolve's answer
	h, m   [][]float64 // curvature's matrix; dampedSolve's augmented system
	act    []int
}

// newDualWork sizes a dual ascent's scratch for pr, carving every float
// buffer from one allocation. Each slice is capped at its length, so the
// points' multipliers and speeds, which a solution keeps, cannot be
// appended into their neighbours.
func (t *tierFns) newDualWork(pr *dualProblem) *dualWork {
	n, nt, w := len(pr.rows), len(t.tiers), t.width()
	buf := make([]float64, 3*(2*n+nt)+5*n+n*(2*n+1)+w)
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	d := &dualWork{act: make([]int, 0, n), h: make([][]float64, n), m: make([][]float64, n)}
	for i := range d.pts {
		d.pts[i] = dualPoint{nu: take(n), speeds: take(nt), viol: take(n)}
	}
	d.corner.nu = take(n)
	d.theta, d.next, d.g, d.u, d.x = take(w), take(n), take(n), take(n), take(n)
	for i := range d.h {
		d.h[i], d.m[i] = take(n), take(n+1)
	}
	return d
}

// spare returns a point of d that is neither p nor best.
func (d *dualWork) spare(p, best *dualPoint) *dualPoint {
	q := &d.pts[0]
	for i := 1; q == p || q == best; i++ {
		q = &d.pts[i]
	}
	return q
}

// at evaluates the dual at ν into p, overwriting p's buffers; theta is
// scratch, width() long.
func (t *tierFns) at(pr *dualProblem, nu []float64, p *dualPoint, theta []float64) {
	copy(p.nu, nu)
	clear(p.viol)
	alpha := pr.weights(nu, theta)
	for j := range t.tiers {
		p.speeds[j] = t.tiers[j].argmin(alpha, theta)
	}
	delays := theta // θ is spent; reuse it for the delays
	pow := t.evalAt(p.speeds, delays)
	p.obj = dot(pr.obj, pow, delays)
	p.q = p.obj
	for i, r := range pr.rows {
		if b := pr.bounds[i]; b > 0 {
			p.viol[i] = dot(r, pow, delays)/b - 1
			p.q += nu[i] * p.viol[i]
		}
	}
}

// curvature returns the negated Hessian of the dual function over the rows
// in act, H = Σ_j u_j·u_jᵀ / (∂²L_j/∂s²) with
// u_ij = row_i·(∂g_j/∂s, v_kj·∂r_kj/∂s, w_kj·v_kj·∂r_kj/∂s)/b_i at s_j, from implicit
// differentiation of each tier's optimality condition ∂L_j/∂s = 0. A tier at
// a speed limit or at a kink of its power curve does not move with ν and
// adds nothing. The derivatives are the tier model's own, from the memo
// entry argmin left at s_j. The matrix is d's.
func (t *tierFns) curvature(pr *dualProblem, p *dualPoint, act []int, d *dualWork) [][]float64 {
	theta := d.theta
	alpha := pr.weights(p.nu, theta)
	nk := len(t.wBy)
	h := d.h[:len(act)]
	for a := range h {
		h[a] = h[a][:len(act)]
		clear(h[a])
	}
	u := d.u[:len(act)]
	for j := range t.tiers {
		f := &t.tiers[j]
		s := p.speeds[j]
		if !f.interior(s) {
			continue
		}
		e := f.at(s, true)
		if !e.ok {
			continue
		}
		l2 := f.weigh(alpha*e.d2[nk], theta, e.d2[:nk])
		if !(l2 > 0) {
			continue
		}
		for a, i := range act {
			r := pr.rows[i]
			u[a] = 0
			if r[0] != 0 {
				u[a] = r[0] * e.d1[nk]
			}
			for k, v := range f.m.Visits {
				if v > 0 && r[k+1] != 0 {
					u[a] += r[k+1] * (v * e.d1[k])
				}
				if v > 0 && f.tailW != nil && r[nk+k+1] != 0 {
					u[a] += r[nk+k+1] * (f.tailW[k] * v * e.d1[k])
				}
			}
			u[a] /= pr.bounds[i]
		}
		for a := range act {
			for b := range act {
				h[a][b] += u[a] * u[b] / l2
			}
		}
	}
	return h
}

// dampedSolve solves (H + µ·D)·x = g by Gaussian elimination with partial
// pivoting, where D is H's diagonal floored at 1e-6 of its largest entry;
// nil when H carries no curvature or the system is numerically singular.
// The system and x are d's.
func (d *dualWork) dampedSolve(h [][]float64, g []float64, mu float64) []float64 {
	n := len(g)
	var top float64
	for i := range h {
		top = math.Max(top, h[i][i])
	}
	if !(top > 0) {
		return nil
	}
	m := d.m[:n]
	for i := range m {
		m[i] = m[i][:n+1]
		copy(m[i], h[i])
		m[i][i] += mu * math.Max(h[i][i], 1e-6*top)
		m[i][n] = g[i]
	}
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(m[r][c]) > math.Abs(m[p][c]) {
				p = r
			}
		}
		if !(math.Abs(m[p][c]) > 1e-13*top) {
			return nil
		}
		m[c], m[p] = m[p], m[c]
		for r := c + 1; r < n; r++ {
			f := m[r][c] / m[c][c]
			for i := c; i <= n; i++ {
				m[r][i] -= f * m[c][i]
			}
		}
	}
	x := d.x[:n]
	for r := n - 1; r >= 0; r-- {
		v := m[r][n]
		for i := r + 1; i < n; i++ {
			v -= m[r][i] * x[i]
		}
		x[r] = v / m[r][r]
	}
	return x
}

// Dual stopping rules: every bound met to dualExcess relative and the
// duality gap Σ_i ν_i·|viol_i| within dualGap of the objective, or give up
// after dualEvals dual evaluations or dualStall steps that do not raise q.
const (
	dualExcess = 1e-9
	dualGap    = 1e-9
	dualEvals  = 150
	dualStall  = 8
)

// dual maximizes the concave dual function
//
//	q(ν) = min_s obj·x(s) + Σ_i ν_i·(row_i·x(s)/b_i − 1),   ν ≥ 0,
//
// from nu0 by projected Newton ascent. The Newton system is restricted to
// the active rows (ν_i > 0 or bound violated) and damped
// Levenberg–Marquardt style when a step fails to raise q, which carries the
// iteration through coupled bounds and through tiers pinned at their speed
// limits. The damping relaxes to at most 1 after every accepted step, since
// a first step from ν = 0 can overshoot by orders of magnitude. A Newton
// step is held to four times the last accepted one, and the hold shrinks
// fourfold when a held step fails: the curvature omits a tier resting on a
// speed limit, so while one is about to leave it every Newton step
// overshoots. A step is taken when q still rises at its end, even if the
// computed q fell: by concavity q rose, and the fall is rounding in the
// tiers' minimizers.
//
// The dual has no gap, so the final point solves the problem, when every
// tier's power curve is convex in its service time 1/s over the speed box:
// power laws (γ ≥ 1), linear models and convex power tables are everywhere,
// other tables on each part convexParts returns. Every delay falls with
// every speed, so the box's least constrained point is its fastest corner
// when the rows bound delays, and its point of least power (cheapest) when a
// row bounds the power. dual returns nil when that point misses a bound.
// Otherwise it returns the final point and whether it met the tolerances; a
// point that did not is replaced by the best feasible point seen, starting
// from that least constrained point. It also returns the dual points it
// evaluated and its iterations, each one optimality check.
func (t *tierFns) dual(pr *dualProblem, nu0 []float64) (p *dualPoint, converged bool, evals, iters int) {
	corner := t.hi
	for i, r := range pr.rows {
		if pr.bounds[i] > 0 && r[0] != 0 {
			corner = t.cheapest()
		}
	}
	d := t.newDualWork(pr)
	delays := d.theta
	pow := t.evalAt(corner, delays)
	for i, r := range pr.rows {
		if b := pr.bounds[i]; b > 0 && !(dot(r, pow, delays) <= b) {
			return nil, false, 0, 0
		}
	}
	best := &d.corner
	best.speeds, best.obj = corner, dot(pr.obj, pow, delays)
	nu := d.next
	for i, b := range pr.bounds {
		if b > 0 && i < len(nu0) && nu0[i] > 0 && !math.IsInf(nu0[i], 1) {
			nu[i] = nu0[i]
		}
	}
	p = &d.pts[0]
	t.at(pr, nu, p, d.theta)
	evals = 1
	scale := 0.01 * p.obj
	mu, reach := 0.0, math.Inf(1)
	for stall := 0; evals < dualEvals && stall < dualStall; {
		iters++
		excess, gap := p.kkt()
		if excess <= dualExcess {
			if p.obj < best.obj {
				best = p
			}
			if gap <= dualGap*p.obj {
				return p, true, evals, iters
			}
		}
		act := d.act[:0]
		for i, b := range pr.bounds {
			if b > 0 && (p.nu[i] > 0 || p.viol[i] > 0) {
				act = append(act, i)
			}
		}
		h := t.curvature(pr, p, act, d)
		g := d.g[:len(act)]
		for a, i := range act {
			g[a] = p.viol[i]
		}
		moved := false
		for try := 0; !moved && evals < dualEvals; try++ {
			next := d.next
			copy(next, p.nu)
			step, held := d.dampedSolve(h, g, mu), false
			if step != nil {
				var n float64
				for _, v := range step {
					n = math.Max(n, math.Abs(v))
				}
				f := 1.0
				if n > reach {
					f, held = reach/n, true
				}
				for a, i := range act {
					next[i] = math.Max(0, next[i]+f*step[a])
				}
			} else {
				// No curvature: q is linear in ν here, so move along its
				// gradient's signs, halving the move on each failure.
				f := math.Ldexp(1, -try)
				for a, i := range act {
					if g[a] > 0 {
						next[i] += f * (3*next[i] + scale)
					} else {
						next[i] -= f * 0.75 * next[i]
					}
				}
			}
			c := d.spare(p, best)
			t.at(pr, next, c, d.theta)
			evals++
			tol := 1e-12 * math.Abs(p.q)
			var ahead float64 // q's slope at c along the step
			for _, i := range act {
				ahead += (c.nu[i] - p.nu[i]) * c.viol[i]
			}
			if c.q < p.q-tol && !(ahead > 0) {
				mu = math.Max(4*mu, 1e-4)
				if held {
					reach /= 4
				}
				continue
			}
			if c.q <= p.q+tol && !(ahead > 0) {
				stall++
			} else {
				stall = 0
			}
			var span float64 // the accepted move's length
			for _, i := range act {
				span = math.Max(span, math.Abs(c.nu[i]-p.nu[i]))
			}
			if reach = 4 * span; step == nil || span == 0 {
				reach = math.Inf(1)
			}
			p, moved = c, true
			if mu = math.Min(mu/4, 1); mu < 1e-9 {
				mu = 0
			}
		}
	}
	if excess, _ := p.kkt(); excess <= dualExcess && p.obj < best.obj {
		best = p
	}
	return best, false, evals, iters
}

// solveParts solves the problem by the dual on every convex part of the
// speed box (convexParts) and returns the solution of the part with the best
// objective, with its multipliers. A part whose least constrained point
// misses a bound is skipped; the caller has checked that the whole box's
// point meets every bound, so the part holding it is solved. A part whose
// ascent gives up is solved once more, starting from the multipliers of the
// best part that converged: from ν = 0 a tier at its stability floor can
// stall the ascent, and the part's own optimum may beat the converged ones.
// The solution counts as converged only when every part that was solved
// converged. The reported objective is the objective row applied to the
// evaluated metrics.
func (t *tierFns) solveParts(pr *dualProblem, nu0 []float64) (*Solution, error) {
	type partSol struct {
		p     *dualPoint
		conv  bool
		iters int
	}
	parts := t.convexParts()
	sols := make([]partSol, len(parts))
	evals := 0
	var warm *dualPoint // the best converged part's point
	for i, part := range parts {
		p, conv, n, it := part.dual(pr, nu0)
		evals += n
		sols[i] = partSol{p, conv, it}
		if p != nil && conv && (warm == nil || p.obj < warm.obj) {
			warm = p
		}
	}
	for i, part := range parts {
		if s := sols[i]; warm != nil && s.p != nil && !s.conv {
			p, conv, n, it := part.dual(pr, warm.nu)
			evals += n
			if conv {
				sols[i] = partSol{p, conv, it}
			}
		}
	}
	var (
		best      *dualPoint
		converged bool
		iters     int
	)
	for _, s := range sols {
		if s.p != nil && (best == nil || s.p.obj < best.obj) {
			best, converged, iters = s.p, s.conv, s.iters
		}
	}
	for _, s := range sols {
		// A part that did not converge may hold a better point.
		converged = converged && (s.p == nil || s.conv)
	}
	if best == nil {
		return nil, fmt.Errorf("core: no part of the speed box meets every bound")
	}
	sol, err := t.solution(best.speeds, pr.obj, opt.Result{
		Iters: iters, Evals: evals, Converged: converged,
	})
	if err != nil {
		return nil, err
	}
	sol.Multipliers = best.nu
	return sol, nil
}

// solution evaluates a clone of the cluster at the speeds, through the tier
// models the solve already holds, and reports the objective row applied to
// its metrics, as r's F, with the speeds as r's X. Every solver and speed
// baseline builds its answer here.
func (t *tierFns) solution(speeds, objRow []float64, r opt.Result) (*Solution, error) {
	out := t.c.Clone()
	if err := out.SetSpeeds(speeds); err != nil {
		return nil, err
	}
	m, err := cluster.EvaluateModels(out, t.ms)
	if err != nil {
		return nil, err
	}
	r.X, r.F = speeds, dot(objRow, m.TotalPower, m.Delay)
	return &Solution{Cluster: out, Metrics: m, Objective: r.F, Result: r}, nil
}

// Tail linearization stopping rules: every quantile within dualExcess of its
// bound and the power moved by at most tailSettle relative between two
// solves, or give up after tailIters linearizations. Each solve is optimal
// only to dualGap, and two solves can alternate between points that far
// apart in power.
const (
	tailSettle = 2 * dualGap
	tailIters  = 100
)

// solveSLA minimizes the power subject to class k's mean delay within
// mean[k] and its tail quantile within tail[k] (bounds ≤ 0 leave a class
// free; a nil slice bounds nothing), starting the dual from the multipliers
// nu0. It returns the multipliers of the mean rows, followed with tail
// bounds by those of the tail rows.
//
// Mean bounds alone are one solveParts call. A quantile is not a sum of
// per-tier terms, so each tail bound is linearized (linearize), first at the
// fastest corner; every iteration re-linearizes at the last solution and
// re-solves from its multipliers. At a fixed point the KKT conditions are
// the tail problem's own, so the answer is exact, not a surrogate.
func solveSLA(c *cluster.Cluster, mean []float64, tail []TailBound, nu0 []float64) (*Solution, error) {
	bounded, hasTail := false, false
	for k, b := range mean {
		if math.IsNaN(b) || math.IsInf(b, 1) {
			return nil, fmt.Errorf("core: class %d delay bound %g is not a finite number", k, b)
		}
		bounded = bounded || b > 0
	}
	for k, b := range tail {
		if math.IsNaN(b.Delay) || math.IsInf(b.Delay, 1) {
			return nil, fmt.Errorf("core: class %d tail bound %g s is not a finite number", k, b.Delay)
		}
		if b.Delay > 0 && !(b.Percentile > 0 && b.Percentile < 1) {
			return nil, fmt.Errorf("core: class %d percentile %g out of (0,1)", k, b.Percentile)
		}
		hasTail = hasTail || b.Delay > 0
	}
	if !bounded && !hasTail {
		return nil, fmt.Errorf("core: no positive delay or tail bound given")
	}
	t, err := newTierFns(c)
	if err != nil {
		return nil, err
	}
	if hasTail { // the tail sums W_k join the quantities
		for j := range t.tiers {
			t.tiers[j].tailW = make([]float64, len(c.Classes))
		}
	}
	w := t.width()
	pr := &dualProblem{obj: t.powerRow(), rows: make([][]float64, w), bounds: make([]float64, w)}
	for i := range pr.rows {
		pr.rows[i] = make([]float64, 1+w)
		pr.rows[i][1+i] = 1
	}
	copy(pr.bounds, mean)
	// Feasibility at maximum speed, where every delay and quantile is least.
	x := make([]float64, w)
	pow := t.evalAt(t.hi, x)
	for k, b := range mean {
		if b > 0 && !(x[k] <= b) {
			return nil, fmt.Errorf("core: class %d bound %g s infeasible: best achievable is %g s", k, b, x[k])
		}
	}
	if math.IsInf(pow, 1) {
		return nil, fmt.Errorf("core: cluster unstable at maximum speeds")
	}
	if !hasTail {
		return t.solveParts(pr, nu0)
	}
	speeds, nu, prevP, evals := t.hi, nu0, math.NaN(), 0
	var sol *Solution
	for it := 0; ; it++ {
		q := t.linearize(speeds, tail, pr.bounds[len(c.Classes):])
		met := true
		for k, b := range tail {
			if b.Delay > 0 && !(q[k] <= b.Delay*(1+dualExcess)) {
				if sol == nil {
					return nil, fmt.Errorf("core: class %d p%g bound %g s infeasible: best achievable is %g s",
						k, 100*b.Percentile, b.Delay, q[k])
				}
				met = false
			}
		}
		if sol != nil {
			settled := math.Abs(sol.Objective-prevP) <= tailSettle*sol.Objective
			if met && settled || it == tailIters {
				if !met {
					return nil, fmt.Errorf("core: tail bounds still missed after %d linearizations", it)
				}
				sol.Result.Converged = sol.Result.Converged && settled
				sol.Result.Iters, sol.Result.Evals = it, evals
				return sol, nil
			}
			prevP = sol.Objective
		}
		if sol, err = t.solveParts(pr, nu); err != nil {
			return nil, err
		}
		evals += sol.Result.Evals
		speeds, nu = sol.Result.X, sol.Multipliers
	}
}

// linearize sets each tail class's tier weights w_kj = (∂Q_k/∂r_kj)/v_kj at
// the speeds and its row bound b_k = x_k − Q_k + W_k, so that W_k ≤ b_k is
// the first-order expansion of Q_k ≤ x_k there. It returns the quantiles
// (0 for classes without a tail bound).
func (t *tierFns) linearize(speeds []float64, tail []TailBound, bounds []float64) []float64 {
	resp := make([][]float64, len(tail)) // resp[k][j] = r_kj
	for k := range resp {
		resp[k] = make([]float64, len(t.tiers))
	}
	for j := range t.tiers {
		_, r, ok := t.tiers[j].eval(speeds[j])
		for k := range resp {
			resp[k][j] = math.Inf(1)
			if ok {
				resp[k][j] = r[k]
			}
		}
	}
	q, grad := make([]float64, len(tail)), make([]float64, len(t.tiers))
	for k, b := range tail {
		if !(b.Delay > 0) {
			continue
		}
		var err error
		if q[k], err = cluster.DelayQuantileAt(t.c, k, resp[k], b.Percentile, grad); err != nil {
			q[k] = math.Inf(1)
		}
		bounds[k] = b.Delay - q[k]
		for j := range t.tiers {
			f := &t.tiers[j]
			f.tailW[k] = 0
			if v := f.m.Visits[k]; v > 0 {
				f.tailW[k] = grad[j] / v
				bounds[k] += f.tailW[k] * v * resp[k][j]
			}
		}
	}
	return q
}
