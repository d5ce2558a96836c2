package bench

import (
	"math"
	"sort"
)

// minBeyond is the fewest samples a reported percentile must have above it;
// with fewer, the tail it claims to describe is a handful of outliers.
const minBeyond = 10

// nearestRank returns the p-quantile of xs by the nearest-rank rule — the
// smallest sample with at least p·n samples at or below it — and whether at
// least minBeyond samples lie beyond that rank. It returns NaN, false for an
// empty sample. xs is not modified.
func nearestRank(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the nearest-rank median; a median always has samples beyond it
// once there are more than a few, so it carries no refusal.
func median(xs []float64) float64 {
	v, _ := nearestRank(xs, 0.5)
	return v
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule Python's statistics.quantiles(xs, n=4) uses (its default
// 'exclusive' method), so spreads printed here match what a Python reader
// computes from the same runs. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const parts = 4
	m := len(s) + 1
	var q [parts - 1]float64
	for i := 1; i < parts; i++ {
		j := i * m / parts
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*parts)
		q[i-1] = (s[j-1]*(parts-delta) + s[j]*delta) / parts
	}
	return q[0], q[1], q[2]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
