package stats

import "testing"

// benchInputs is a fixed, non-monotone input stream: a multiplicative hash
// of the index folded into [0, 1), so every iteration feeds a fresh value
// without an RNG call inside the timed loop.
func benchInputs() []float64 {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64((uint32(i)*2654435761)>>22) / 1024
	}
	return xs
}

// benchSink keeps micro-benchmark results live so the compiler cannot
// discard the measured calls.
var benchSink float64

// BenchmarkWelfordAdd measures one streaming mean/variance update, the
// per-completion cost of every delay and per-tier wait accumulator.
func BenchmarkWelfordAdd(b *testing.B) {
	xs := benchInputs()
	var w Welford
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(xs[i&1023])
	}
	benchSink = w.Mean()
}

// BenchmarkP2Add measures one P² quantile-marker update, the per-completion
// cost of each tracked delay percentile.
func BenchmarkP2Add(b *testing.B) {
	xs := benchInputs()
	q := NewP2Quantile(0.95)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Add(xs[i&1023])
	}
	benchSink = q.Value()
}
