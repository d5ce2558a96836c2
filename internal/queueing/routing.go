package queueing

import (
	"fmt"
	"math"
)

// ClassRouting is a per-class probabilistic (Markov) routing chain over a
// set of stations, generalizing a deterministic route: a request enters
// at station j with probability Entry[j]; after completing service at
// station i it moves to station j with probability Next[i][j] and leaves the
// system with the remaining probability 1 − Σ_j Next[i][j].
//
// The expected number of visits to each station solves the traffic
// equations v = Entry + vᵀNext, and per-class performance follows from the
// visit rates exactly as for deterministic routes: station arrival rates are
// λ·v_j and the expected end-to-end delay is Σ_j v_j·T_j.
type ClassRouting struct {
	Entry []float64
	Next  [][]float64
}

// Validate checks stochastic consistency against the station count: Entry is
// a distribution, every Next row is substochastic, and the chain is
// transient (every request eventually leaves, i.e. the traffic equations
// have a finite non-negative solution).
func (r *ClassRouting) Validate(numStations int) error {
	if len(r.Entry) != numStations {
		return fmt.Errorf("queueing: routing entry vector has %d entries for %d stations", len(r.Entry), numStations)
	}
	var sum float64
	for j, p := range r.Entry {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("queueing: entry probability %g at station %d", p, j)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("queueing: entry probabilities sum to %g", sum)
	}
	if len(r.Next) != numStations {
		return fmt.Errorf("queueing: routing matrix has %d rows for %d stations", len(r.Next), numStations)
	}
	for i, row := range r.Next {
		if len(row) != numStations {
			return fmt.Errorf("queueing: routing row %d has %d entries", i, len(row))
		}
		var rs float64
		for j, p := range row {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return fmt.Errorf("queueing: transition probability %g at (%d,%d)", p, i, j)
			}
			rs += p
		}
		if rs > 1+1e-9 {
			return fmt.Errorf("queueing: routing row %d sums to %g > 1", i, rs)
		}
	}
	if _, err := r.VisitRates(); err != nil {
		return err
	}
	return nil
}

// VisitRates solves the traffic equations v = Entry + vᵀNext for the
// expected visit counts, returning an error when the chain is recurrent
// (requests never leave) or otherwise singular.
func (r *ClassRouting) VisitRates() ([]float64, error) {
	n := len(r.Entry)
	// (I − Nextᵀ)·v = Entry.
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = -r.Next[j][i]
		}
		a[i][i] += 1
		b[i] = r.Entry[i]
	}
	v, err := solveDense(a, b)
	if err != nil {
		return nil, fmt.Errorf("queueing: traffic equations singular (requests never leave?): %w", err)
	}
	for j, x := range v {
		if x < -1e-9 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("queueing: visit rate %g at station %d; the routing chain is not transient", x, j)
		}
		if v[j] < 0 {
			v[j] = 0
		}
	}
	return v, nil
}

// solveDense solves a·x = b by Gaussian elimination with partial pivoting.
// It mutates its arguments (callers pass freshly built copies).
func solveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in the column at or below the diagonal.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-12 {
			return nil, fmt.Errorf("singular at column %d", col)
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for cc := col; cc < n; cc++ {
				a[r][cc] -= f * a[col][cc]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for cc := r + 1; cc < n; cc++ {
			s -= a[r][cc] * x[cc]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// RoutingFromRoute converts a deterministic route into the equivalent
// probabilistic chain (probability-1 transitions). Useful for tests and for
// mixing route styles in one cluster.
func RoutingFromRoute(route []int, numStations int) (*ClassRouting, error) {
	if len(route) == 0 {
		return nil, fmt.Errorf("queueing: empty route")
	}
	r := &ClassRouting{
		Entry: make([]float64, numStations),
		Next:  make([][]float64, numStations),
	}
	for i := range r.Next {
		r.Next[i] = make([]float64, numStations)
	}
	for _, j := range route {
		if j < 0 || j >= numStations {
			return nil, fmt.Errorf("queueing: route references station %d of %d", j, numStations)
		}
	}
	r.Entry[route[0]] = 1
	// A deterministic route with revisits is not expressible as a
	// station-level Markov chain in general (the next hop depends on the
	// position, not the station), so reject routes whose station has two
	// different successors.
	next := make(map[int]int)
	for i := 0; i+1 < len(route); i++ {
		if prev, ok := next[route[i]]; ok && prev != route[i+1] {
			return nil, fmt.Errorf("queueing: route visits station %d with different successors; not Markov", route[i])
		}
		next[route[i]] = route[i+1]
	}
	last := route[len(route)-1]
	if _, ok := next[last]; ok {
		return nil, fmt.Errorf("queueing: route's last station %d also has a successor; not Markov", last)
	}
	for i, j := range next {
		r.Next[i][j] = 1
	}
	return r, nil
}
