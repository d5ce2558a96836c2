package experiments

import (
	"fmt"
	"math"
	"sort"

	"clusterq/internal/opt"
)

// This file holds E17's general-purpose reference solver: a multi-start
// augmented Lagrangian whose inner problems Nelder–Mead solves inside the
// speed box. It is derivative-free end to end and knows nothing of the
// model's separable structure, which is what E17 measures the duals
// against.

// objective is a scalar function of a vector.
type objective func(x []float64) float64

// constraint is an inequality constraint g(x) ≤ 0.
type constraint func(x []float64) float64

// box holds per-coordinate lower and upper bounds.
type box struct {
	lo, hi []float64
}

// newBox validates the bounds and returns the box.
func newBox(lo, hi []float64) (box, error) {
	if len(lo) != len(hi) || len(lo) == 0 {
		return box{}, fmt.Errorf("e17: bound lengths %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if !(lo[i] <= hi[i]) {
			return box{}, fmt.Errorf("e17: bounds inverted at %d: [%g, %g]", i, lo[i], hi[i])
		}
	}
	return box{lo: lo, hi: hi}, nil
}

// dim returns the dimensionality.
func (b box) dim() int { return len(b.lo) }

// project clamps x into the box in place and returns it.
func (b box) project(x []float64) []float64 {
	for i := range x {
		if x[i] < b.lo[i] {
			x[i] = b.lo[i]
		}
		if x[i] > b.hi[i] {
			x[i] = b.hi[i]
		}
	}
	return x
}

// width returns hi−lo of coordinate i.
func (b box) width(i int) float64 { return b.hi[i] - b.lo[i] }

// augLagDefaults fills the unset fields of o with the defaults: 30 outer
// iterations, initial penalty 10 growing fourfold, feasibility tolerance
// 1e-6.
func augLagDefaults(o opt.AugLagOptions) opt.AugLagOptions {
	if o.OuterIters <= 0 {
		o.OuterIters = 30
	}
	if o.Penalty0 <= 0 {
		o.Penalty0 = 10
	}
	if o.PenaltyMul <= 1 {
		o.PenaltyMul = 4
	}
	if o.CTol <= 0 {
		o.CTol = 1e-6
	}
	return o
}

// augmentedLagrangian minimizes f subject to g_i(x) ≤ 0 and box
// constraints, using the standard multiplier method for inequalities:
//
//	L(x; λ, μ) = f(x) + (1/2μ) Σ_i [max(0, λ_i + μ g_i(x))² − λ_i²]
//
// with multiplier update λ_i ← max(0, λ_i + μ g_i(x)). The inner problems
// are solved by Nelder–Mead inside the box.
func augmentedLagrangian(f objective, gs []constraint, b box, x0 []float64, opts opt.AugLagOptions) opt.Result {
	opts = augLagDefaults(opts)
	if len(gs) == 0 {
		return nelderMead(f, b, x0, opts.Inner)
	}

	lambda := make([]float64, len(gs))
	mu := opts.Penalty0
	x := b.project(append([]float64(nil), x0...))

	totalEvals, totalIters := 0, 0
	best := opt.Result{F: math.Inf(1)}
	feasibleFound := false

	for outer := 0; outer < opts.OuterIters; outer++ {
		lagr := func(p []float64) float64 {
			v := f(p)
			if math.IsInf(v, 1) {
				return v
			}
			for i, g := range gs {
				gi := g(p)
				if math.IsInf(gi, 1) {
					return math.Inf(1)
				}
				t := lambda[i] + mu*gi
				if t > 0 {
					v += (t*t - lambda[i]*lambda[i]) / (2 * mu)
				} else {
					v -= lambda[i] * lambda[i] / (2 * mu)
				}
			}
			return v
		}
		res := nelderMead(lagr, b, x, opts.Inner)
		x = res.X
		totalEvals += res.Evals
		totalIters++

		// Measure violation and update multipliers.
		maxViol := 0.0
		for i, g := range gs {
			gi := g(x)
			if gi > maxViol {
				maxViol = gi
			}
			lambda[i] = math.Max(0, lambda[i]+mu*gi)
		}

		fx := f(x)
		totalEvals++
		if maxViol <= opts.CTol {
			prevBest := best.F
			if fx < best.F {
				best = opt.Result{X: append([]float64(nil), x...), F: fx}
			}
			// Two consecutive feasible solves with a stable objective:
			// the multipliers have settled.
			if feasibleFound && math.Abs(fx-prevBest) <= 1e-8*(1+math.Abs(prevBest)) {
				best.Iters, best.Evals, best.Converged = totalIters, totalEvals, true
				return best
			}
			feasibleFound = true
		}
		mu *= opts.PenaltyMul
	}

	if !feasibleFound {
		// Return the least-violating point with Converged=false.
		return opt.Result{X: x, F: f(x), Iters: totalIters, Evals: totalEvals}
	}
	best.Iters, best.Evals, best.Converged = totalIters, totalEvals, true
	return best
}

// multiStart runs the given solver from several deterministic starting
// points spread across the box and returns the best result. starts ≥ 1;
// evaluation counts are accumulated.
func multiStart(solve func(x0 []float64) opt.Result, b box, starts int) opt.Result {
	if starts < 1 {
		starts = 1
	}
	best := opt.Result{F: math.Inf(1)}
	for s := 0; s < starts; s++ {
		x0 := make([]float64, b.dim())
		for i := range x0 {
			// Deterministic low-discrepancy-ish spread: fractional parts
			// of multiples of the golden ratio, per start and dimension.
			frac := math.Mod(0.5+float64(s)*0.6180339887498949+float64(i)*0.3819660112501051, 1)
			x0[i] = b.lo[i] + frac*b.width(i)
		}
		r := solve(x0)
		evals := best.Evals + r.Evals
		iters := best.Iters + r.Iters
		if r.F < best.F {
			best = r
		}
		best.Evals = evals
		best.Iters = iters
	}
	return best
}

// nelderMeadDefaults fills the unset fields of o for a problem of dim
// coordinates: 200·dim iterations, f-spread 1e-10, x-spread 1e-9, initial
// simplex 0.1 of the box width.
func nelderMeadDefaults(o opt.NelderMeadOptions, dim int) opt.NelderMeadOptions {
	if o.MaxIters <= 0 {
		o.MaxIters = 200 * dim
	}
	if o.FTol <= 0 {
		o.FTol = 1e-10
	}
	if o.XTol <= 0 {
		o.XTol = 1e-9
	}
	if o.InitStep <= 0 {
		o.InitStep = 0.1
	}
	return o
}

type nmVertex struct {
	x []float64
	f float64
}

// nelderMead minimizes f over the box starting from x0, projecting every
// trial point into the box (a simple and effective way to respect bounds
// with a derivative-free method).
func nelderMead(f objective, b box, x0 []float64, opts opt.NelderMeadOptions) opt.Result {
	dim := b.dim()
	opts = nelderMeadDefaults(opts, dim)

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}

	// Initial simplex: x0 plus one perturbed vertex per dimension.
	start := b.project(append([]float64(nil), x0...))
	simplex := make([]nmVertex, dim+1)
	simplex[0] = nmVertex{x: append([]float64(nil), start...), f: eval(start)}
	for i := 0; i < dim; i++ {
		v := append([]float64(nil), start...)
		step := opts.InitStep * b.width(i)
		if step == 0 {
			step = opts.InitStep * (1 + math.Abs(start[i]))
		}
		v[i] += step
		if v[i] > b.hi[i] { // reflect inside
			v[i] = start[i] - step
		}
		b.project(v)
		simplex[i+1] = nmVertex{x: v, f: eval(v)}
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	iters := 0
	converged := false
	for ; iters < opts.MaxIters; iters++ {
		sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
		best, worst := simplex[0], simplex[dim]

		// Convergence: f-spread and x-spread of the simplex.
		fSpread := math.Abs(worst.f - best.f)
		var xSpread float64
		for i := 0; i < dim; i++ {
			if d := math.Abs(worst.x[i] - best.x[i]); d > xSpread {
				xSpread = d
			}
		}
		if fSpread <= opts.FTol*(1+math.Abs(best.f)) && xSpread <= opts.XTol*(1+norm2(best.x)) {
			converged = true
			break
		}

		// Centroid of all but the worst vertex.
		centroid := make([]float64, dim)
		for _, v := range simplex[:dim] {
			for i := range centroid {
				centroid[i] += v.x[i]
			}
		}
		for i := range centroid {
			centroid[i] /= float64(dim)
		}

		mix := func(c float64) []float64 {
			p := make([]float64, dim)
			for i := range p {
				p[i] = centroid[i] + c*(centroid[i]-worst.x[i])
			}
			return b.project(p)
		}

		refl := mix(alpha)
		fr := eval(refl)
		switch {
		case fr < best.f:
			// Try to expand.
			exp := mix(gamma)
			fe := eval(exp)
			if fe < fr {
				simplex[dim] = nmVertex{x: exp, f: fe}
			} else {
				simplex[dim] = nmVertex{x: refl, f: fr}
			}
		case fr < simplex[dim-1].f:
			simplex[dim] = nmVertex{x: refl, f: fr}
		default:
			// Contract toward the centroid.
			con := mix(-rho)
			fc := eval(con)
			if fc < worst.f {
				simplex[dim] = nmVertex{x: con, f: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= dim; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = best.x[j] + sigma*(simplex[i].x[j]-best.x[j])
					}
					b.project(simplex[i].x)
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
	}

	sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
	return opt.Result{X: simplex[0].x, F: simplex[0].f, Iters: iters, Evals: evals, Converged: converged}
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
