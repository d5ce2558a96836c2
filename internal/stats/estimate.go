package stats

import (
	"fmt"
	"math"
)

// Estimate bundles a point estimate with a confidence half-width, as produced
// by simulation replications.
type Estimate struct {
	Mean    float64 // point estimate
	HalfW   float64 // confidence half-width (NaN if not available)
	Level   float64 // confidence level the half-width corresponds to
	Samples int64   // observations behind the estimate
	Batches int64   // batches or replications behind the half-width
}

// HasCI reports whether the estimate carries a usable confidence half-width.
// Replication/batch counts below two leave HalfW as NaN; callers that treat
// Contains as a pass/fail check should first gate on HasCI, because Contains
// vacuously succeeds without an interval.
func (e Estimate) HasCI() bool {
	return !math.IsNaN(e.HalfW)
}

// Contains reports whether v lies within the confidence interval. It returns
// true when no half-width is available (see HasCI), so callers can use it as
// a soft check; strict validation should require HasCI() && Contains(v).
func (e Estimate) Contains(v float64) bool {
	if !e.HasCI() {
		return true
	}
	return v >= e.Mean-e.HalfW && v <= e.Mean+e.HalfW
}

// RelErr returns |Mean-v|/|v| (relative error against a reference value v),
// or the absolute error when v is indistinguishable from zero.
func (e Estimate) RelErr(v float64) float64 {
	if almostZero(v) {
		return math.Abs(e.Mean)
	}
	return math.Abs(e.Mean-v) / math.Abs(v)
}

func (e Estimate) String() string {
	if math.IsNaN(e.HalfW) {
		return fmt.Sprintf("%.6g (n=%d)", e.Mean, e.Samples)
	}
	return fmt.Sprintf("%.6g ± %.3g (%d%%, n=%d)", e.Mean, e.HalfW, int(e.Level*100), e.Samples)
}
