package stats

import "math"

// zeroTol is the magnitude below which a computed mean is treated as zero by
// the relative-error helpers. Means in this package are averages of physical
// quantities (seconds, watts, requests) whose true scale is far above 1e-12;
// anything smaller is accumulated floating-point noise around an exact zero.
const zeroTol = 1e-12

// almostZero reports whether x is indistinguishable from zero at zeroTol.
// Relative measures (RelErr) switch to their degenerate form at this
// threshold instead of dividing by a noise-sized denominator.
func almostZero(x float64) bool {
	return math.Abs(x) < zeroTol
}
