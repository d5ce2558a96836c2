package core

import (
	"fmt"
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// This file implements the Lagrangian dual decomposition behind every
// mean-delay solver: C2 (MinimizeDelay), C3a (MinimizeEnergy), C3b
// (MinimizeEnergyPerClass) and C4's speed tuning. Under the Poisson-arrival
// coupling each tier's response times depend only on that tier's speed, so
// every quantity these problems constrain or minimize is a sum of per-tier
// terms:
//
//	D_k(s) = Σ_j v_kj·r_kj(s_j)   (class k's mean end-to-end delay)
//	P(s)   = Σ_j g_j(s_j)         (average power of tier j)
//
// and so is any weighted delay Σ_k w_k·D_k. The Lagrangian of each problem
// therefore splits into J independent one-dimensional tier problems
//
//	min_{s_j} α·g_j(s_j) + Σ_k θ_k·v_kj·r_kj(s_j)
//
// solved globally on the tier's speed range. C2 and C3a have one multiplier,
// found by bisection on their single constraint; C3b has one multiplier per
// bounded class, found by projected Newton ascent on the concave dual
// function. A power table that is not convex in 1/s splits the speed box into
// convex parts, each solved by the dual. The results are exact for the
// separable model. The augmented Lagrangian remains only where the problem is
// not separable: percentile bounds (MinimizeEnergyTail, and C4's tuning when
// a class carries one).

// tierFn is one tier's separable share of the model. Its arrival vector,
// visit rates and queueing station depend only on the cluster, so they are
// built once per solve; evaluating the tier at a speed rewrites the
// station's speed alone.
type tierFn struct {
	st      *queueing.Station
	at      []float64 // per-class arrival rates at the tier, λ_k·v_kj
	visits  []float64 // per-class expected visits v_kj
	avail   float64   // availability A: the station serves at Speed·A
	model   power.Model
	servers int
	knots   []float64 // lo, the power curve's kinks inside (lo, hi), hi
}

func newTierFn(t *cluster.Tier, at, visits []float64, lo, hi float64) tierFn {
	knots := []float64{lo}
	// A table model's busy power has kinks at its listed speeds.
	if tb, ok := t.Power.(*power.Table); ok {
		for _, s := range tb.Speeds {
			if s > lo && s < hi {
				knots = append(knots, s)
			}
		}
	}
	knots = append(knots, hi)
	return tierFn{
		st: t.Station(), at: at, visits: visits, avail: t.EffectiveAvailability(),
		model: t.Power, servers: t.Servers, knots: knots,
	}
}

// eval returns the tier's average power and per-class response times at
// nominal speed s, as cluster.Evaluate computes them: the station serves at
// s·A, the busy fraction of nominal servers is ρ·A, and failed servers draw
// no static power. ok is false when a class visiting the tier has an
// unbounded response time.
func (f *tierFn) eval(s float64) (pow float64, resp []float64, ok bool) {
	f.st.Speed = s * f.avail
	_, resp, err := f.st.ResponseTimes(f.at)
	if err != nil {
		return 0, nil, false
	}
	for k, v := range f.visits {
		if v > 0 && math.IsInf(resp[k], 1) {
			return 0, nil, false
		}
	}
	br := power.StationBreakdown(f.model, s, f.servers, f.st.Utilization(f.at)*f.avail)
	return br.Static*f.avail + br.Dynamic, resp, true
}

// lagrangian returns α·g_j(s) + Σ_k θ_k·v_kj·r_kj(s), +Inf where the tier is
// unstable.
func (f *tierFn) lagrangian(s, alpha float64, theta []float64) float64 {
	pow, resp, ok := f.eval(s)
	if !ok {
		return math.Inf(1)
	}
	l := alpha * pow
	for k, v := range f.visits {
		if v > 0 {
			l += theta[k] * v * resp[k]
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
// kept inside [a, b], so a kink at either end does not leak in.
func pieceMin(obj func(float64) float64, a, b float64) float64 {
	if !(b > a) {
		return a
	}
	lo, hi := a, b
	slope := func(x float64) float64 {
		l, r := math.Max(x-1e-4*x, lo), math.Min(x+1e-4*x, hi)
		return (obj(r) - obj(l)) / (r - l)
	}
	if !(slope(a) < 0) {
		return a
	}
	if !(slope(b) > 0) {
		return b
	}
	x := a + (b-a)/2
	for i := 0; i < 100 && b-a > 1e-12*b; i++ {
		h := 1e-4 * x
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
	for _, v := range w {
		if v < 0 {
			return nil, fmt.Errorf("core: negative weight %g", v)
		}
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("core: all-zero weights")
	}
	wn := make([]float64, len(w))
	for i, v := range w {
		wn[i] = v / sum
	}
	nk := len(work.Classes)
	visits := make([][]float64, nk)
	for k := range visits {
		visits[k] = work.VisitRates(k)
	}
	tiers := make([]tierFn, len(work.Tiers))
	for j, tier := range work.Tiers {
		at, v := make([]float64, nk), make([]float64, nk)
		for k := range v {
			v[k] = visits[k][j]
			at[k] = work.Classes[k].Lambda * v[k]
		}
		tiers[j] = newTierFn(tier, at, v, lo[j], hi[j])
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
	tb, ok := f.model.(*power.Table)
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

// evalAt fills delays with the per-class delays D_k at the given speeds and
// returns the total power. An unstable tier makes the power and the delays
// of the classes visiting it +Inf.
func (t *tierFns) evalAt(speeds, delays []float64) float64 {
	clear(delays)
	var pow float64
	for j := range t.tiers {
		f := &t.tiers[j]
		p, resp, ok := f.eval(speeds[j])
		if !ok {
			p = math.Inf(1)
		}
		pow += p
		for k, v := range f.visits {
			switch {
			case v > 0 && !ok:
				delays[k] = math.Inf(1)
			case v > 0:
				delays[k] += v * resp[k]
			}
		}
	}
	return pow
}

// argminAll sets speeds to the per-tier minimizers of
// α·g_j + Σ_k θ_k·v_kj·r_kj and returns evalAt's delays and power there.
func (t *tierFns) argminAll(alpha float64, theta, speeds, delays []float64) float64 {
	for j := range t.tiers {
		speeds[j] = t.tiers[j].argmin(alpha, theta)
	}
	return t.evalAt(speeds, delays)
}

// weighted returns Σ_k w_k·D_k.
func (t *tierFns) weighted(delays []float64) float64 {
	var d float64
	for k, w := range t.wBy {
		if w > 0 {
			d += w * delays[k]
		}
	}
	return d
}

// singleDual adapts argminAll to the one-multiplier problems: at β it
// returns the per-tier minimizers with their constrained value and their
// objective. C3a minimizes P + β·Σ w·D under the bound Σ w·D; in delay form
// C2 minimizes Σ w·D + β·P under the budget P.
func (t *tierFns) singleDual(delayForm bool) func(beta float64) (speeds []float64, value, obj float64) {
	theta := make([]float64, len(t.wBy))
	delays := make([]float64, len(t.wBy))
	return func(beta float64) ([]float64, float64, float64) {
		alpha, scale := 1.0, beta
		if delayForm {
			alpha, scale = beta, 1
		}
		for k, w := range t.wBy {
			theta[k] = scale * w
		}
		speeds := make([]float64, len(t.tiers))
		pow := t.argminAll(alpha, theta, speeds, delays)
		if delayForm {
			return speeds, pow, t.weighted(delays)
		}
		return speeds, t.weighted(delays), pow
	}
}

// bisectMultiplier returns the minimizers at the least β ≥ 0 whose
// constrained value meets the limit. The value is non-increasing in β; the
// bracket grows from betaHi. β = 0 optimizes the objective alone, so when
// that already meets the limit it is the optimum. The caller has checked
// that the limit is achievable.
func bisectMultiplier(solve func(float64) ([]float64, float64, float64), limit, betaHi float64) (speeds []float64, evals int, trace []opt.TraceEntry, err error) {
	s0, v0, f0 := solve(0)
	evals = 1
	trace = append(trace, opt.TraceEntry{F: f0, Violation: math.Max(0, v0-limit), Evals: evals})
	if v0 <= limit {
		return s0, evals, trace, nil
	}
	for {
		_, v, _ := solve(betaHi)
		evals++
		if v <= limit {
			break
		}
		betaHi *= 4
		if betaHi > 1e18 {
			return nil, evals, trace, fmt.Errorf("core: dual multiplier failed to bracket the constraint")
		}
	}
	betaLo := 0.0
	for i := 0; i < 100 && betaHi-betaLo > 1e-12*(1+betaHi); i++ {
		mid := (betaLo + betaHi) / 2
		s, v, f := solve(mid)
		evals++
		trace = append(trace, opt.TraceEntry{
			Iter: i + 1, F: f, Violation: math.Max(0, v-limit),
			Step: betaHi - betaLo, Evals: evals,
		})
		if v <= limit {
			betaHi = mid
			speeds = s
		} else {
			betaLo = mid
		}
	}
	if speeds == nil {
		speeds, _, _ = solve(betaHi)
		evals++
	}
	return speeds, evals, trace, nil
}

// singleDualParts solves a one-multiplier problem on every convex part of the
// speed box (convexParts) and returns the minimizers of the part with the
// best objective: C3a (delayForm false) bounds the weighted delay by limit,
// C2 (delayForm true) the power. A part whose extreme point — the fastest for
// C3a, the slowest for C2 — misses the limit is skipped. The caller has
// checked that the whole box's extreme point meets it, so the part holding
// that point is solved.
func (t *tierFns) singleDualParts(delayForm bool, limit, betaHi float64) (speeds []float64, evals int, trace []opt.TraceEntry, err error) {
	delays := make([]float64, len(t.wBy))
	// at returns the constrained value and the objective at s.
	at := func(part *tierFns, s []float64) (value, obj float64) {
		pow := part.evalAt(s, delays)
		if delayForm {
			return pow, part.weighted(delays)
		}
		return part.weighted(delays), pow
	}
	best := math.Inf(1)
	for _, part := range t.convexParts() {
		extreme := part.hi
		if delayForm {
			extreme = part.lo
		}
		if v, _ := at(part, extreme); !(v <= limit) {
			continue
		}
		s, n, tr, err := bisectMultiplier(part.singleDual(delayForm), limit, betaHi)
		evals += n
		if err != nil {
			return nil, evals, nil, err
		}
		if _, obj := at(part, s); speeds == nil || obj < best {
			speeds, best, trace = s, obj, tr
		}
	}
	return speeds, evals, trace, nil
}

// dualObjective selects what the assembled Solution reports as Objective.
type dualObjective int

const (
	powerObjective dualObjective = iota // C3a/C3b: minimized power
	delayObjective                      // C2: minimized weighted delay
)

// finishDual assembles a Solution at the decomposed speeds. The objective is
// recomputed from the separable tier functions so custom weights are
// honoured; trace carries the dual search's convergence record.
func finishDual(t *tierFns, speeds []float64, evals int, kind dualObjective, trace []opt.TraceEntry, converged bool) (*Solution, error) {
	out := t.c.Clone()
	if err := out.SetSpeeds(speeds); err != nil {
		return nil, err
	}
	m, err := cluster.Evaluate(out)
	if err != nil {
		return nil, err
	}
	obj := m.TotalPower
	if kind == delayObjective {
		delays := make([]float64, len(t.wBy))
		t.evalAt(speeds, delays)
		obj = t.weighted(delays)
	}
	return &Solution{
		Cluster: out, Metrics: m,
		Objective: obj,
		Result: opt.Result{
			X: speeds, F: obj, Iters: len(trace), Evals: evals,
			Converged: converged, Trace: trace,
		},
	}, nil
}

// perClassPoint is the C3b dual at one multiplier vector ν: the per-tier
// Lagrangian minimizers and what they achieve.
type perClassPoint struct {
	nu, speeds, delays []float64
	viol               []float64 // D_k/b_k − 1 for bounded classes, 0 otherwise
	pow                float64
	q                  float64 // dual function value P + Σ_k ν_k·viol_k
}

// kkt returns the point's largest relative bound excess and its duality gap
// Σ_k ν_k·|viol_k| (complementary slackness).
func (p *perClassPoint) kkt() (excess, gap float64) {
	for k, v := range p.viol {
		excess = math.Max(excess, v)
		gap += p.nu[k] * math.Abs(v)
	}
	return excess, gap
}

// perClassTheta returns the per-class Lagrangian delay weights θ_k = ν_k/b_k.
func perClassTheta(nu, bounds []float64) []float64 {
	theta := make([]float64, len(bounds))
	for k, b := range bounds {
		if b > 0 {
			theta[k] = nu[k] / b
		}
	}
	return theta
}

// perClassAt evaluates the C3b dual at ν.
func (t *tierFns) perClassAt(nu, bounds []float64) *perClassPoint {
	p := &perClassPoint{
		nu: nu, speeds: make([]float64, len(t.tiers)),
		delays: make([]float64, len(bounds)), viol: make([]float64, len(bounds)),
	}
	p.pow = t.argminAll(1, perClassTheta(nu, bounds), p.speeds, p.delays)
	p.q = p.pow
	for k, b := range bounds {
		if b > 0 {
			p.viol[k] = p.delays[k]/b - 1
			p.q += nu[k] * p.viol[k]
		}
	}
	return p
}

// curvature returns the negated Hessian of the dual function over the
// classes in act, H = Σ_j u_j·u_jᵀ / (∂²L_j/∂s²) with
// u_kj = v_kj·(∂r_kj/∂s)/b_k at s_j, from implicit differentiation of each
// tier's optimality condition ∂L_j/∂s = 0. A tier at a speed limit does not
// move with ν and adds nothing. Derivatives are central differences in the
// speed.
func (t *tierFns) curvature(p *perClassPoint, bounds []float64, act []int) [][]float64 {
	theta := perClassTheta(p.nu, bounds)
	h := make([][]float64, len(act))
	for a := range h {
		h[a] = make([]float64, len(act))
	}
	u := make([]float64, len(act))
	for j := range t.tiers {
		f := &t.tiers[j]
		s := p.speeds[j]
		ds := 1e-4 * s
		if s-ds < t.lo[j] || s+ds > t.hi[j] {
			continue
		}
		var l [3]float64
		var resp [3][]float64
		for i, x := range [3]float64{s - ds, s, s + ds} {
			pow, r, ok := f.eval(x)
			if !ok {
				pow = math.NaN()
			}
			l[i], resp[i] = pow, r
			for k, v := range f.visits {
				if v > 0 && ok {
					l[i] += theta[k] * v * r[k]
				}
			}
		}
		l2 := (l[0] - 2*l[1] + l[2]) / (ds * ds)
		if !(l2 > 0) {
			continue // also a tier unstable just below s_j
		}
		for a, k := range act {
			u[a] = f.visits[k] * (resp[2][k] - resp[0][k]) / (2 * ds) / bounds[k]
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

// C3b dual stopping rules: every bound met to perClassExcess relative and
// the duality gap Σ_k ν_k·|D_k/b_k − 1| within perClassGap of the power, or
// give up after perClassEvals dual evaluations or perClassStall steps that
// do not raise q.
const (
	perClassExcess = 1e-9
	perClassGap    = 1e-9
	perClassEvals  = 150
	perClassStall  = 8
)

// perClassDual maximizes the concave C3b dual function
//
//	q(ν) = min_s P(s) + Σ_k ν_k·(D_k(s)/b_k − 1),   ν ≥ 0,
//
// from nu0 by projected Newton ascent. The Newton system is restricted to
// the active classes (ν_k > 0 or bound violated) and damped
// Levenberg–Marquardt style when a step fails to raise q, which carries the
// iteration through coupled bounds and through tiers pinned at their speed
// limits. While no tier responds to ν at all, q is linear and the active
// multipliers grow or shrink geometrically until one does.
//
// The dual has no gap, so the final point solves C3b, when every tier's
// power curve is convex in its service time 1/s over the speed box: power
// laws (γ ≥ 1), linear models and convex power tables are everywhere, other
// tables on each part convexParts returns. perClassDual returns the final
// point and whether it met the tolerances; a point that did not is replaced
// by the cheapest feasible point seen, starting from the maximum speeds,
// which the caller has checked meet every bound.
func (t *tierFns) perClassDual(bounds, nu0 []float64) (p *perClassPoint, converged bool, evals int, trace []opt.TraceEntry) {
	nu := make([]float64, len(bounds))
	for k, b := range bounds {
		if b > 0 && k < len(nu0) && nu0[k] > 0 && !math.IsInf(nu0[k], 1) {
			nu[k] = nu0[k]
		}
	}
	p = t.perClassAt(nu, bounds)
	evals = 1
	best := &perClassPoint{nu: make([]float64, len(bounds)), speeds: t.hi}
	best.pow = t.evalAt(t.hi, make([]float64, len(bounds)))
	scale := 0.01 * p.pow
	mu := 0.0
	for iter, stall := 0, 0; evals < perClassEvals && stall < perClassStall; iter++ {
		excess, gap := p.kkt()
		trace = append(trace, opt.TraceEntry{Iter: iter, F: p.pow, Violation: excess, Step: mu, Evals: evals})
		if excess <= perClassExcess {
			if p.pow < best.pow {
				best = p
			}
			if gap <= perClassGap*p.pow {
				return p, true, evals, trace
			}
		}
		var act []int
		for k, b := range bounds {
			if b > 0 && (p.nu[k] > 0 || p.viol[k] > 0) {
				act = append(act, k)
			}
		}
		h := t.curvature(p, bounds, act)
		g := make([]float64, len(act))
		for a, k := range act {
			g[a] = p.viol[k]
		}
		moved := false
		for try := 0; !moved && evals < perClassEvals; try++ {
			next := append([]float64(nil), p.nu...)
			if step := dampedSolve(h, g, mu); step != nil {
				for a, k := range act {
					next[k] = math.Max(0, next[k]+step[a])
				}
			} else {
				// No curvature: q is linear in ν here, so move along its
				// gradient's signs, halving the move on each failure.
				f := math.Ldexp(1, -try)
				for a, k := range act {
					if g[a] > 0 {
						next[k] += f * (3*next[k] + scale)
					} else {
						next[k] -= f * 0.75 * next[k]
					}
				}
			}
			c := t.perClassAt(next, bounds)
			evals++
			tol := 1e-12 * math.Abs(p.q)
			if c.q < p.q-tol {
				mu = math.Max(4*mu, 1e-4)
				continue
			}
			if c.q <= p.q+tol {
				stall++
			} else {
				stall = 0
			}
			p, moved = c, true
			if mu /= 4; mu < 1e-9 {
				mu = 0
			}
		}
	}
	if excess, _ := p.kkt(); excess <= perClassExcess && p.pow < best.pow {
		best = p
	}
	return best, false, evals, trace
}
