package queueing

import (
	"fmt"
	"math"
)

// Discipline selects the scheduling policy of a priority station.
type Discipline int

const (
	// FCFS serves all classes in arrival order (no priority).
	FCFS Discipline = iota
	// NonPreemptive serves the highest-priority waiting class next but
	// never interrupts a job in service.
	NonPreemptive
	// PreemptiveResume interrupts lower-priority service immediately and
	// resumes it later from where it stopped.
	PreemptiveResume
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "FCFS"
	case NonPreemptive:
		return "non-preemptive"
	case PreemptiveResume:
		return "preemptive-resume"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// PriorityTimes fills wait and resp with the per-class mean waiting and
// response times of a c-server station with Poisson arrivals under
// discipline d. Class k arrives at rate lambda[k] with service moments
// m1[k] = E[S_k] and m2[k] = E[S_k²]; classes are ordered by priority,
// index 0 highest. wait and resp must be as long as lambda. It returns the
// per-server utilization Σ_k λ_k E[S_k] / c, which Utilization also
// computes, and allocates nothing (Station.Moments fills the moments the
// same way).
//
// When d1 and d2 are non-nil (as long as lambda) they receive each response
// time's first and second derivatives in the station's speed factor f, at
// f = 1: the derivatives of resp[k] when every service time is divided by
// f, so that every E[S] scales as 1/f and every E[S²] as 1/f². A station at
// speed σ has ∂resp/∂σ = d1/σ and ∂²resp/∂σ² = d2/σ². They come from the
// same quantities as the values, differentiated in closed form (Erlang C
// through its Erlang-B recursion); the values are the same bits either way.
// A class whose response time is +Inf gets NaN derivatives.
//
// One server, M/G/1 (ρ_k = λ_k E[S_k], σ_k = ρ_0 + … + ρ_k,
// R_k = Σ_{i≤k} λ_i E[S_i²]/2, R = R_{K−1}):
//
//	FCFS:               W_k = R / (1 − σ_{K−1})           (P–K, same for all k)
//	Non-preemptive:     W_k = R / ((1 − σ_{k−1})(1 − σ_k))  (Cobham)
//	Preemptive-resume:  T_k = E[S_k]/(1 − σ_{k−1}) + R_k/((1 − σ_{k−1})(1 − σ_k))
//
// c > 1 servers, FCFS or non-preemptive, with σ_k = Σ_{i≤k} λ_i E[S_i]/c:
// the same two forms with R replaced by the aggregate M/M/c wait scaled by
// the two-moment correction, B = (1+CV²_agg)/2 · C(c, a) · E[S_agg]/c, where
// a = E[S_agg]·Σ_k λ_k and C is Erlang C. When all classes share one
// exponential service time the non-preemptive result is exact
// (Kella–Yechiali); otherwise it is an approximation, validated by the
// simulator in internal/sim. Preemptive-resume with c > 1 has no usable
// closed form and returns an error; use c = 1 or the simulator.
//
// Classes whose formula diverges (the relevant σ ≥ 1) get +Inf.
func PriorityTimes(c int, d Discipline, lambda, m1, m2, wait, resp, d1, d2 []float64) (rho float64, err error) {
	if len(lambda) == 0 {
		return 0, fmt.Errorf("queueing: no classes")
	}
	for i, l := range lambda {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return 0, fmt.Errorf("queueing: class %d has invalid arrival rate %g", i, l)
		}
		if !(m1[i] > 0) {
			return 0, fmt.Errorf("queueing: class %d has invalid service distribution", i)
		}
	}
	switch {
	case c < 1:
		return 0, fmt.Errorf("queueing: server count %d < 1", c)
	case d != FCFS && d != NonPreemptive && d != PreemptiveResume:
		return 0, fmt.Errorf("queueing: unknown discipline %v", d)
	case c > 1 && d == PreemptiveResume:
		return 0, fmt.Errorf("queueing: no closed form for preemptive-resume with %d > 1 servers", c)
	}
	slopes := d1 != nil

	fc := float64(c)
	// Totals over the classes: arrival rate, Σλ E[S], Σλ E[S²], the
	// utilization σ_{K−1} and the residual work R.
	var lamTot, work, sec, total, rTotal float64
	for i, l := range lambda {
		lamTot += l
		work += l * m1[i]
		sec += l * m2[i]
		total += l * m1[i] / fc
		rTotal += l * m2[i] / 2
	}
	rho = work / fc
	// base is the numerator every class's wait shares, b1 and b2 its
	// derivatives in the speed factor: R scales as 1/f².
	base := rTotal
	b1, b2 := -2*base, 6*base
	if c > 1 {
		if lamTot == 0 {
			for i := range lambda {
				wait[i], resp[i] = 0, m1[i]
				if slopes {
					d1[i], d2[i] = -m1[i], 2*m1[i]
				}
			}
			return rho, nil
		}
		mean, meanSq := work/lamTot, sec/lamTot // aggregate E[S], E[S²]
		cv2 := meanSq/(mean*mean) - 1
		a := lamTot * mean // offered load in Erlangs
		erl, ca, caa := erlangC(c, a, slopes)
		base = (1 + cv2) / 2 * erl * mean / fc
		if slopes {
			// CV² does not move with f; a and the mean scale as 1/f.
			c1, c2 := -a*ca, a*a*caa+2*a*ca
			k := (1 + cv2) / 2 * mean / fc
			b1, b2 = k*(c1-erl), k*(c2-2*c1+2*erl)
		}
	}

	// The running sums σ_k and R_k repeat the totals' additions in the same
	// order, so σ_{K−1} here equals total bit for bit.
	sigma, rk := 0.0, 0.0
	for i, l := range lambda {
		prev := sigma
		sigma += l * m1[i] / fc
		rk += l * m2[i] / 2
		es := m1[i]
		switch {
		case d == FCFS && total >= 1, d != FCFS && (sigma >= 1 || prev >= 1):
			wait[i], resp[i] = math.Inf(1), math.Inf(1)
			if slopes {
				d1[i], d2[i] = math.NaN(), math.NaN()
			}
			continue
		case d == FCFS:
			wait[i] = base / (1 - total)
			resp[i] = wait[i] + es
		case d == NonPreemptive:
			// Cobham: delayed by the residual of whoever is in
			// service, including lower-priority classes.
			wait[i] = base / ((1 - prev) * (1 - sigma))
			resp[i] = wait[i] + es
		default: // preemptive-resume, one server
			resp[i] = es/(1-prev) + rk/((1-prev)*(1-sigma))
			wait[i] = resp[i] - es
		}
		if !slopes {
			continue
		}
		// h = 1/((1 − σ_{k−1})(1 − σ_k)), or 1/(1 − σ_{K−1}) under FCFS.
		// Every σ scales as 1/f, so 1 − σ has derivatives σ and −2σ.
		below, upto := prev, sigma
		if d == FCFS {
			below, upto = 0, total
		}
		h, h1, h2 := inverse(product(1-below, below, -2*below, 1-upto, upto, -2*upto))
		if d != PreemptiveResume {
			d1[i] = b1*h + base*h1 - es
			d2[i] = b2*h + 2*b1*h1 + base*h2 + 2*es
			continue
		}
		g, g1, g2 := inverse(1-prev, prev, -2*prev)
		d1[i] = -es*g + es*g1 - 2*rk*h + rk*h1
		d2[i] = 2*es*g - 2*es*g1 + es*g2 + 6*rk*h - 4*rk*h1 + rk*h2
	}
	return rho, nil
}

// product returns u·v and its first two derivatives from u's and v's.
func product(u, u1, u2, v, v1, v2 float64) (p, p1, p2 float64) {
	return u * v, u1*v + u*v1, u2*v + 2*u1*v1 + u*v2
}

// inverse returns 1/p and its first two derivatives from p's.
func inverse(p, p1, p2 float64) (h, h1, h2 float64) {
	h = 1 / p
	return h, -p1 * h * h, (2*p1*p1*h - p2) * h * h
}

// Utilization returns a c-server station's per-server utilization
// σ = Σ λ_k E[S_k] / c from per-class arrival rates and mean service
// times.
func Utilization(c int, lambda, m1 []float64) float64 {
	var u float64
	for i, l := range lambda {
		u += l * m1[i]
	}
	return u / float64(c)
}
