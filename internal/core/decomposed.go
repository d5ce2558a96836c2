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
// weights and the knots of its power curve.
type tierFn struct {
	m     cluster.TierModel
	tailW []float64 // per-class tail weights w_kj; nil without tail rows
	knots []float64 // lo, the power curve's kinks inside (lo, hi), hi
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
	knots = append(knots, hi)
	return tierFn{m: m, knots: knots}
}

// eval returns the tier's average power and per-class response times at
// nominal speed s. ok is false when a class visiting the tier has an
// unbounded response time.
func (f *tierFn) eval(s float64) (pow float64, resp []float64, ok bool) {
	_, resp, tm, err := f.m.Eval(s)
	if err != nil {
		return 0, nil, false
	}
	for k, v := range f.m.Visits {
		if v > 0 && math.IsInf(resp[k], 1) {
			return 0, nil, false
		}
	}
	return tm.Power.Static + tm.Power.Dynamic, resp, true
}

// lagrangian returns α·g_j(s) + Σ_k θ_k·v_kj·r_kj(s) (+ the tail terms, see
// weigh), +Inf where the tier is unstable.
func (f *tierFn) lagrangian(s, alpha float64, theta []float64) float64 {
	pow, resp, ok := f.eval(s)
	if !ok {
		return math.Inf(1)
	}
	return f.weigh(alpha*pow, theta, resp)
}

// weigh adds the tier's delay terms Σ_k θ_k·v_kj·r_kj to l and, with tail
// rows, Σ_k θ_(K+k)·w_kj·v_kj·r_kj.
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

// argmin returns the global minimizer of the tier Lagrangian over its speed
// range, the best of its minimizers between consecutive knots. Between knots
// the Lagrangian is convex in the service time u = 1/s: the power term is a
// multiple of u^(1−γ) (power law), constant (linear) or affine in u (a table
// segment), and every response time is convex in u. So it is unimodal in s
// there, and pieceMin applies.
func (f *tierFn) argmin(alpha float64, theta []float64) float64 {
	obj := func(s float64) float64 { return f.lagrangian(s, alpha, theta) }
	best, bestF := f.knots[0], math.Inf(1)
	for i := 1; i < len(f.knots); i++ {
		x := pieceMin(obj, f.knots[i-1], f.knots[i])
		if v := obj(x); v < bestF {
			best, bestF = x, v
		}
	}
	return best
}

// pieceMin returns the minimizer of a function unimodal on [a, b]: an end
// where the slope points out of the interval, otherwise the root of the
// slope, by Newton steps on difference quotients safeguarded by bisection of
// the bracket. Root-finding on the slope resolves the speed to rounding,
// where comparing function values (golden section) stalls at √ε relative —
// too coarse for the C3b dual, whose bound residuals move with the speeds.
// The difference step is wide enough that rounding cannot flip the slope's
// sign near the root; the root's resulting offset is smooth in the
// multipliers and costs only second order in the objective. Quotients are
// kept inside [a, b], so a kink at either end does not leak in, narrowing
// near an end down to 1e-9 of the speed; the ends are judged by one-sided
// quotients 1e-9 wide. Near a stability floor, 0.1% below a tier's lowest
// speed, the minimizer moves by far less than a wide quotient resolves.
func pieceMin(obj func(float64) float64, a, b float64) float64 {
	if !(b > a) {
		return a
	}
	lo, hi := a, b
	slope := func(x float64) float64 {
		l, r := math.Max(x-1e-4*x, lo), math.Min(x+1e-4*x, hi)
		return (obj(r) - obj(l)) / (r - l)
	}
	if !((obj(a+1e-9*a)-obj(a))/(1e-9*a) < 0) {
		return a
	}
	if !((obj(b)-obj(b-1e-9*b))/(1e-9*b) > 0) {
		return b
	}
	x := a + (b-a)/2
	for i := 0; i < 100 && b-a > 1e-12*b; i++ {
		h := math.Max(math.Min(1e-4*x, math.Min(x-lo, hi-x)/2), 1e-9*x)
		newton := math.NaN()
		if x-h > lo && x+h < hi {
			fl, fm, fr := obj(x-h), obj(x), obj(x+h)
			d1, d2 := (fr-fl)/(2*h), (fr-2*fm+fl)/(h*h)
			if d1 < 0 {
				a = x
			} else {
				b = x
			}
			if d2 > 0 {
				newton = x - d1/d2
			}
		} else if slope(x) < 0 {
			a = x
		} else {
			b = x
		}
		next := a + (b-a)/2
		if newton > a && newton < b {
			next = newton
		}
		if math.Abs(next-x) <= 1e-12*x {
			return next
		}
		x = next
	}
	return x
}

// tierFns holds the tier functions of one cluster.
type tierFns struct {
	c     *cluster.Cluster
	tiers []tierFn
	lo    []float64
	hi    []float64
	wBy   []float64 // per-class weights, normalized to sum 1
}

// newTierFns prepares the decomposition for the cluster. Weights default to
// arrival-rate weighting.
func newTierFns(c *cluster.Cluster, weights []float64) (*tierFns, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	work := c.Clone()
	lo, hi := work.SpeedBounds()
	w := weights
	if w == nil {
		w = work.Lambdas()
	}
	var sum float64
	for k, v := range w {
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("core: weight %d is %g, want finite and non-negative", k, v)
		}
		sum += v
	}
	if !(sum > 0) || math.IsInf(sum, 1) {
		return nil, fmt.Errorf("core: weights sum to %g, want a positive finite sum", sum)
	}
	wn := make([]float64, len(w))
	for i, v := range w {
		wn[i] = v / sum
	}
	ms := work.TierModels()
	tiers := make([]tierFn, len(ms))
	for j, m := range ms {
		tiers[j] = newTierFn(m, lo[j], hi[j])
	}
	return &tierFns{c: work, tiers: tiers, lo: lo, hi: hi, wBy: wn}, nil
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
		cuts[j] = append(append([]float64{t.lo[j]}, t.tiers[j].concaveKinks()...), t.hi[j])
		if n *= len(cuts[j]) - 1; n > maxConvexParts {
			return []*tierFns{t}
		}
	}
	if n == 1 {
		return []*tierFns{t}
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
			u.tiers[j].knots = append(knots, hi)
		}
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

// at evaluates the dual at ν.
func (t *tierFns) at(pr *dualProblem, nu []float64) *dualPoint {
	p := &dualPoint{nu: nu, speeds: make([]float64, len(t.tiers)), viol: make([]float64, len(pr.rows))}
	theta := make([]float64, t.width())
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
	return p
}

// curvature returns the negated Hessian of the dual function over the rows
// in act, H = Σ_j u_j·u_jᵀ / (∂²L_j/∂s²) with
// u_ij = row_i·(∂g_j/∂s, v_kj·∂r_kj/∂s, w_kj·v_kj·∂r_kj/∂s)/b_i at s_j, from implicit
// differentiation of each tier's optimality condition ∂L_j/∂s = 0. A tier at
// a speed limit does not move with ν and adds nothing. Derivatives are
// central differences in the speed, narrowed to fit inside its limits.
func (t *tierFns) curvature(pr *dualProblem, p *dualPoint, act []int) [][]float64 {
	theta := make([]float64, t.width())
	alpha := pr.weights(p.nu, theta)
	nk := len(t.wBy)
	h := make([][]float64, len(act))
	for a := range h {
		h[a] = make([]float64, len(act))
	}
	u := make([]float64, len(act))
	for j := range t.tiers {
		f := &t.tiers[j]
		s := p.speeds[j]
		ds := math.Min(1e-4*s, math.Min(s-t.lo[j], t.hi[j]-s)/2)
		if !(ds > 0) {
			continue
		}
		var l, pow [3]float64
		var resp [3][]float64
		for i, x := range [3]float64{s - ds, s, s + ds} {
			g, r, ok := f.eval(x)
			if !ok {
				g = math.NaN()
			}
			l[i], pow[i], resp[i] = alpha*g, g, r
			if ok {
				l[i] = f.weigh(l[i], theta, r)
			}
		}
		l2 := (l[0] - 2*l[1] + l[2]) / (ds * ds)
		if !(l2 > 0) {
			continue // also a tier unstable just below s_j
		}
		for a, i := range act {
			r := pr.rows[i]
			u[a] = 0
			if r[0] != 0 {
				u[a] = r[0] * (pow[2] - pow[0]) / (2 * ds)
			}
			for k, v := range f.m.Visits {
				if v > 0 && r[k+1] != 0 {
					u[a] += r[k+1] * (v * (resp[2][k] - resp[0][k]) / (2 * ds))
				}
				if v > 0 && f.tailW != nil && r[nk+k+1] != 0 {
					u[a] += r[nk+k+1] * (f.tailW[k] * v * (resp[2][k] - resp[0][k]) / (2 * ds))
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
func dampedSolve(h [][]float64, g []float64, mu float64) []float64 {
	n := len(g)
	var top float64
	for i := range h {
		top = math.Max(top, h[i][i])
	}
	if !(top > 0) {
		return nil
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
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
	x := make([]float64, n)
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
// computed q fell: by concavity q rose, and the fall is the argmin's
// difference-quotient offset.
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
// from that least constrained point.
func (t *tierFns) dual(pr *dualProblem, nu0 []float64) (p *dualPoint, converged bool, evals int, trace []opt.TraceEntry) {
	corner := t.hi
	for i, r := range pr.rows {
		if pr.bounds[i] > 0 && r[0] != 0 {
			corner = t.cheapest()
		}
	}
	delays := make([]float64, t.width())
	pow := t.evalAt(corner, delays)
	for i, r := range pr.rows {
		if b := pr.bounds[i]; b > 0 && !(dot(r, pow, delays) <= b) {
			return nil, false, 0, nil
		}
	}
	best := &dualPoint{nu: make([]float64, len(pr.rows)), speeds: corner, obj: dot(pr.obj, pow, delays)}
	nu := make([]float64, len(pr.rows))
	for i, b := range pr.bounds {
		if b > 0 && i < len(nu0) && nu0[i] > 0 && !math.IsInf(nu0[i], 1) {
			nu[i] = nu0[i]
		}
	}
	p = t.at(pr, nu)
	evals = 1
	scale := 0.01 * p.obj
	mu, reach := 0.0, math.Inf(1)
	for iter, stall := 0, 0; evals < dualEvals && stall < dualStall; iter++ {
		excess, gap := p.kkt()
		trace = append(trace, opt.TraceEntry{Iter: iter, F: p.obj, Violation: excess, Step: mu, Evals: evals})
		if excess <= dualExcess {
			if p.obj < best.obj {
				best = p
			}
			if gap <= dualGap*p.obj {
				return p, true, evals, trace
			}
		}
		var act []int
		for i, b := range pr.bounds {
			if b > 0 && (p.nu[i] > 0 || p.viol[i] > 0) {
				act = append(act, i)
			}
		}
		h := t.curvature(pr, p, act)
		g := make([]float64, len(act))
		for a, i := range act {
			g[a] = p.viol[i]
		}
		moved := false
		for try := 0; !moved && evals < dualEvals; try++ {
			next := append([]float64(nil), p.nu...)
			step, held := dampedSolve(h, g, mu), false
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
			c := t.at(pr, next)
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
	return best, false, evals, trace
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
		trace []opt.TraceEntry
	}
	parts := t.convexParts()
	sols := make([]partSol, len(parts))
	evals := 0
	var warm *dualPoint // the best converged part's point
	for i, part := range parts {
		p, conv, n, tr := part.dual(pr, nu0)
		evals += n
		sols[i] = partSol{p, conv, tr}
		if p != nil && conv && (warm == nil || p.obj < warm.obj) {
			warm = p
		}
	}
	for i, part := range parts {
		if s := sols[i]; warm != nil && s.p != nil && !s.conv {
			p, conv, n, tr := part.dual(pr, warm.nu)
			evals += n
			if conv {
				sols[i] = partSol{p, conv, tr}
			}
		}
	}
	var (
		best      *dualPoint
		converged bool
		trace     []opt.TraceEntry
	)
	for _, s := range sols {
		if s.p != nil && (best == nil || s.p.obj < best.obj) {
			best, converged, trace = s.p, s.conv, s.trace
		}
	}
	for _, s := range sols {
		// A part that did not converge may hold a better point.
		converged = converged && (s.p == nil || s.conv)
	}
	if best == nil {
		return nil, fmt.Errorf("core: no part of the speed box meets every bound")
	}
	out := t.c.Clone()
	if err := out.SetSpeeds(best.speeds); err != nil {
		return nil, err
	}
	m, err := cluster.Evaluate(out)
	if err != nil {
		return nil, err
	}
	obj := dot(pr.obj, m.TotalPower, m.Delay)
	return &Solution{
		Cluster: out, Metrics: m, Objective: obj, Multipliers: best.nu,
		Result: opt.Result{
			X: best.speeds, F: obj, Iters: len(trace), Evals: evals,
			Converged: converged, Trace: trace,
		},
	}, nil
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
	t, err := newTierFns(c, nil)
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
