package core

import (
	"fmt"
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/opt"
	"clusterq/internal/power"
)

// This file certifies the duals' answers by weak duality. Every problem the
// duals solve is a sum of per-tier terms, so for any multipliers ν ≥ 0
//
//	q(ν) = Σ_j min_{s ∈ [lo_j, hi_j]} [α·P_j(s) + Σ_k θ_k·v_kj·r_kj(s)] − Σ_live ν_i,
//	(α, θ) = obj + Σ_i ν_i·row_i/b_i,
//
// is a lower bound on the optimum over the box. Objective − q(ν) bounds how
// far a returned answer can be from optimal. The checker shares nothing
// with the solver's tier machinery: each tier's minimum comes from
// cluster.TierModel.Eval alone, by a grid on every piece between a power
// table's listed speeds and golden-section search around the piece's best
// grid point. Between listed speeds the tier term is convex in 1/s, hence
// unimodal in s, so the best grid point's neighbours bracket the minimum.

// certGrid is the number of grid intervals per piece of a tier's range.
const certGrid = 32

// certGapTol bounds the certified gap of a solve relative to its objective:
// the duals stop at a duality gap of 1e-9, taken at tier minimizers resolved
// to rounding, so the gap they see is the gap the checker certifies. Tail
// solves certify the mean-type problem that linearize builds at the
// returned speeds, while the returned multipliers solve the linearization at
// the previous iterate, whose power lies within tailSettle (2e-9) of the
// returned one; the largest such gap in the suites is 5e-11 relative.
const certGapTol = 1e-9

// certTier is one tier as the checker sees it: its model and, for tail
// rows, its tail weights w_kj.
type certTier struct {
	m     cluster.TierModel
	tailW []float64
}

// term returns the tier's Lagrangian term α·P(s) + Σ_k θ_k·v_k·r_k(s) (+ the
// tail terms Σ_k θ_(K+k)·w_k·v_k·r_k(s)), +Inf where the tier is unstable.
// Zero coefficients are skipped.
func (ct *certTier) term(s, alpha float64, theta []float64) float64 {
	_, resp, tm, err := ct.m.Eval(s, nil, nil)
	if err != nil {
		return math.Inf(1)
	}
	var l float64
	if alpha != 0 {
		l = alpha * (tm.Power.Static + tm.Power.Dynamic)
	}
	nk := len(ct.m.Visits)
	for k, v := range ct.m.Visits {
		if !(v > 0) {
			continue
		}
		if math.IsInf(resp[k], 1) {
			return math.Inf(1)
		}
		if theta[k] != 0 {
			l += theta[k] * v * resp[k]
		}
		if ct.tailW != nil && theta[nk+k] != 0 {
			l += theta[nk+k] * ct.tailW[k] * v * resp[k]
		}
	}
	return l
}

// least returns the tier term's global minimum over [lo, hi]: per piece
// between the power table's listed speeds, the best of a certGrid grid and
// of a golden-section search between the best grid point's neighbours.
func (ct *certTier) least(lo, hi, alpha float64, theta []float64) float64 {
	f := func(s float64) float64 { return ct.term(s, alpha, theta) }
	cuts := []float64{lo}
	if tb, ok := ct.m.Power.(*power.Table); ok {
		for _, s := range tb.Speeds {
			if s > lo && s < hi {
				cuts = append(cuts, s)
			}
		}
	}
	cuts = append(cuts, hi)
	best := math.Inf(1)
	var xs [certGrid + 1]float64
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		at, atF := 0, math.Inf(1)
		for g := range xs {
			xs[g] = a + (b-a)*float64(g)/certGrid
			if v := f(xs[g]); v < atF {
				at, atF = g, v
			}
		}
		_, v, _ := opt.GoldenSection(f, xs[max(at-1, 0)], xs[min(at+1, certGrid)], 1e-10)
		best = math.Min(best, math.Min(atF, v))
	}
	return best
}

// certProblem is one problem as the checker sees it: the tiers, the
// problem's rows (dualProblem data) and the speed box.
type certProblem struct {
	tiers  []certTier
	pr     *dualProblem
	lo, hi []float64
}

// newCertProblem builds the checker's view of pr on c. tailW[j], when
// non-nil, gives tier j's tail weights.
func newCertProblem(c *cluster.Cluster, pr *dualProblem, tailW [][]float64) *certProblem {
	ms := c.TierModels()
	cp := &certProblem{tiers: make([]certTier, len(ms)), pr: pr}
	for j, m := range ms {
		cp.tiers[j].m = m
		if tailW != nil {
			cp.tiers[j].tailW = tailW[j]
		}
	}
	cp.lo, cp.hi = c.SpeedBounds()
	return cp
}

// q returns the dual function at ν over the box [lo, hi].
func (cp *certProblem) q(nu, lo, hi []float64) float64 {
	pr := cp.pr
	alpha := pr.obj[0]
	theta := append([]float64(nil), pr.obj[1:]...)
	var q float64
	for i, r := range pr.rows {
		b := pr.bounds[i]
		if !(b > 0) {
			continue
		}
		n := nu[i]
		if n < 0 {
			n = 0 // only ν ≥ 0 bounds the optimum
		}
		q -= n
		alpha += n * r[0] / b
		for k := range theta {
			theta[k] += n * r[k+1] / b
		}
	}
	for j := range cp.tiers {
		q += cp.tiers[j].least(lo[j], hi[j], alpha, theta)
	}
	return q
}

// infeasible reports whether no point of the box [lo, hi] meets every live
// row, judged by the checker's own evaluation: a power row's budget below
// the box's least power Σ_j min P_j, or a delay row missed at the box's
// fastest corner, where every delay and tail sum is least.
func (cp *certProblem) infeasible(lo, hi []float64) bool {
	pr := cp.pr
	x := make([]float64, len(pr.obj)) // (P, D…, W…) at the fastest corner
	for j := range cp.tiers {
		ct := &cp.tiers[j]
		_, resp, tm, err := ct.m.Eval(hi[j], nil, nil)
		if err != nil {
			return false
		}
		x[0] += tm.Power.Static + tm.Power.Dynamic
		nk := len(ct.m.Visits)
		for k, v := range ct.m.Visits {
			if v > 0 {
				x[1+k] += v * resp[k]
				if ct.tailW != nil {
					x[1+nk+k] += ct.tailW[k] * v * resp[k]
				}
			}
		}
	}
	for i, r := range pr.rows {
		b := pr.bounds[i]
		if !(b > 0) {
			continue
		}
		if r[0] != 0 {
			if cp.leastPower(lo, hi) > b {
				return true
			}
			continue
		}
		var d float64
		for k, c := range r[1:] {
			if c != 0 {
				d += c * x[1+k]
			}
		}
		if d > b {
			return true
		}
	}
	return false
}

// leastPower returns the least power over the box [lo, hi], Σ_j min P_j.
func (cp *certProblem) leastPower(lo, hi []float64) float64 {
	zero := make([]float64, len(cp.pr.obj)-1)
	var p float64
	for j := range cp.tiers {
		p += cp.tiers[j].least(lo[j], hi[j], 1, zero)
	}
	return p
}

// certify returns the certified gap Objective − min over parts of q_part of
// a solution of pr on the tiers t. One convex part is certified at the
// returned multipliers. A power table that splits the box into several
// parts leaves the whole-box dual a real gap, so each part gets its own
// lower bound, at the better of the returned multipliers and the part's own
// dual multipliers; a part the dual skips must be infeasible by itself.
func certify(t *tierFns, pr *dualProblem, sol *Solution) (float64, error) {
	var tailW [][]float64
	if t.tiers[0].tailW != nil {
		tailW = make([][]float64, len(t.tiers))
		for j := range t.tiers {
			tailW[j] = t.tiers[j].tailW
		}
	}
	cp := newCertProblem(t.c, pr, tailW)
	parts := t.convexParts()
	if err := cp.covers(parts); err != nil {
		return 0, err
	}
	if len(parts) == 1 {
		return sol.Objective - cp.q(sol.Multipliers, cp.lo, cp.hi), nil
	}
	lower := math.Inf(1)
	for n, part := range parts {
		p, _, _, _ := part.dual(pr, nil)
		if p == nil {
			if !cp.infeasible(part.lo, part.hi) {
				return 0, fmt.Errorf("part %d [%v, %v] skipped but not shown infeasible", n, part.lo, part.hi)
			}
			continue
		}
		q := math.Max(cp.q(p.nu, part.lo, part.hi), cp.q(sol.Multipliers, part.lo, part.hi))
		lower = math.Min(lower, q)
	}
	return sol.Objective - lower, nil
}

// covers checks that the parts tile the speed box: each lies inside it, no
// two overlap in volume, and their volumes add up to the box's.
func (cp *certProblem) covers(parts []*tierFns) error {
	vol := func(lo, hi []float64) float64 {
		v := 1.0
		for j := range lo {
			if hi[j] > lo[j] {
				v *= hi[j] - lo[j]
			}
		}
		return v
	}
	var sum float64
	for a, p := range parts {
		for j := range p.lo {
			if !(p.lo[j] >= cp.lo[j] && p.hi[j] <= cp.hi[j] && p.lo[j] <= p.hi[j]) {
				return fmt.Errorf("part %d leaves the box on tier %d", a, j)
			}
		}
		for b := a + 1; b < len(parts); b++ {
			overlap := true // in every tier with a range
			for j := range p.lo {
				if p.hi[j] > p.lo[j] && math.Min(p.hi[j], parts[b].hi[j]) <= math.Max(p.lo[j], parts[b].lo[j]) {
					overlap = false
				}
			}
			if overlap {
				return fmt.Errorf("parts %d and %d overlap", a, b)
			}
		}
		sum += vol(p.lo, p.hi)
	}
	if whole := vol(cp.lo, cp.hi); math.Abs(sum-whole) > 1e-12*whole {
		return fmt.Errorf("parts cover volume %g of %g", sum, whole)
	}
	return nil
}

// meanProblem returns the rows of a C2 (kind "c2" or "c2w", bounding the
// power by limit and minimizing the normalized weighted delay), a C3a
// (kind "c3a", bounding that delay by limit and minimizing the power) or a
// C3b problem (kind "c3b", bounding each class k's delay by bounds[k]).
// weights nil means arrival-rate weighting.
func meanProblem(c *cluster.Cluster, kind string, limit float64, weights, bounds []float64) *dualProblem {
	nk := len(c.Classes)
	unit := func(i int) []float64 {
		r := make([]float64, 1+nk)
		r[i] = 1
		return r
	}
	w := weights
	if w == nil {
		w = c.Lambdas()
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	delay := make([]float64, 1+nk)
	for k, v := range w {
		delay[1+k] = v / sum
	}
	switch kind {
	case "c3a":
		return &dualProblem{obj: unit(0), rows: [][]float64{delay}, bounds: []float64{limit}}
	case "c3b":
		pr := &dualProblem{obj: unit(0), bounds: append([]float64(nil), bounds...)}
		for k := range bounds {
			pr.rows = append(pr.rows, unit(1+k))
		}
		return pr
	default:
		return &dualProblem{obj: delay, rows: [][]float64{unit(0)}, bounds: []float64{limit}}
	}
}

// certifyMean fails t unless the solution of the mean problem pr on c
// certifies a gap of at most tol of its objective.
func certifyMean(t *testing.T, name string, c *cluster.Cluster, weights []float64, pr *dualProblem, sol *Solution, tol float64) {
	t.Helper()
	tf, err := weightedTierFns(c, weights)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	gap, err := certify(tf, pr, sol)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if !(gap <= tol*math.Abs(sol.Objective)) {
		t.Errorf("%s: objective %.12g, certified gap %.3g (%.3g relative)",
			name, sol.Objective, gap, gap/math.Abs(sol.Objective))
	}
}

// weightedTierFns is newTierFns with the per-class delay weights w,
// normalized to sum 1, in place of the arrival rates; nil w keeps the rates.
// It rejects weights MinimizeDelay could never be asked to use: one per
// class, finite and non-negative, with a positive finite sum.
func weightedTierFns(c *cluster.Cluster, w []float64) (*tierFns, error) {
	tf, err := newTierFns(c)
	if err != nil || w == nil {
		return tf, err
	}
	if len(w) != len(c.Classes) {
		return nil, fmt.Errorf("%d weights for %d classes", len(w), len(c.Classes))
	}
	var sum float64
	for k, v := range w {
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("weight %d is %g, want finite and non-negative", k, v)
		}
		sum += v
	}
	if !(sum > 0) || math.IsInf(sum, 1) {
		return nil, fmt.Errorf("weights sum to %g, want a positive finite sum", sum)
	}
	tf.wBy = make([]float64, len(w))
	for k, v := range w {
		tf.wBy[k] = v / sum
	}
	return tf, nil
}

// minimizeDelayWeighted is MinimizeDelay with the per-class delay weights w
// of weightedTierFns in place of the arrival rates: the C2 solver on an
// objective the paper does not pose, which exercises the dual at weights
// arrival rates do not produce, a zero weight among them.
func minimizeDelayWeighted(c *cluster.Cluster, budget float64, w []float64) (*Solution, error) {
	if !(budget > 0) {
		return nil, fmt.Errorf("energy budget %g must be positive", budget)
	}
	tf, err := weightedTierFns(c, w)
	if err != nil {
		return nil, err
	}
	return tf.minimizeDelay(budget)
}

// certifySLA fails t unless a solveSLA solution with mean bounds mean and
// tail bounds tail (nil for none) certifies a gap of at most tol of its
// power: the problem itself with mean bounds alone, with tail bounds the
// mean-type problem linearize builds at the returned speeds.
func certifySLA(t *testing.T, name string, c *cluster.Cluster, mean []float64, tail []TailBound, sol *Solution, tol float64) {
	t.Helper()
	nk := len(c.Classes)
	if mean == nil {
		mean = make([]float64, nk)
	}
	if tail == nil {
		certifyMean(t, name, c, nil, meanProblem(c, "c3b", 0, nil, mean), sol, tol)
		return
	}
	tf, err := newTierFns(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for j := range tf.tiers {
		tf.tiers[j].tailW = make([]float64, nk)
	}
	pr := &dualProblem{obj: make([]float64, 1+2*nk), bounds: make([]float64, 2*nk)}
	pr.obj[0] = 1
	for i := range pr.bounds {
		r := make([]float64, 1+2*nk)
		r[1+i] = 1
		pr.rows = append(pr.rows, r)
	}
	copy(pr.bounds, mean)
	tf.linearize(sol.Cluster.Speeds(), tail, pr.bounds[nk:])
	gap, err := certify(tf, pr, sol)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if !(gap <= tol*math.Abs(sol.Objective)) {
		t.Errorf("%s: power %.12g, certified gap of the final linearization %.3g (%.3g relative)",
			name, sol.Objective, gap, gap/math.Abs(sol.Objective))
	}
}
