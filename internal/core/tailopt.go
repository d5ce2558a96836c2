package core

import (
	"fmt"

	"clusterq/internal/cluster"
)

// TailBound is a per-class percentile delay requirement:
// P(D_k ≤ Delay) ≥ Percentile.
type TailBound struct {
	Delay      float64 // bound in seconds (≤ 0 means unconstrained)
	Percentile float64 // e.g. 0.95
}

// TailOptions configures MinimizeEnergyTail.
type TailOptions struct {
	// Bounds[k] is class k's tail requirement (zero value = unconstrained);
	// a NaN or +Inf Delay, or a Percentile outside (0, 1), is rejected.
	Bounds []TailBound
}

// MinimizeEnergyTail is the percentile flavour of the paper's C3 problem:
// choose per-tier speeds to minimize average power subject to per-class
// TAIL delay guarantees,
//
//	min_s  P(s)   s.t.  Q_k(γ_k; s) ≤ x_k  for every bounded class k,
//
// where Q_k is the γ_k-quantile of class k's end-to-end delay under the
// hypoexponential stage approximation (cluster.DelayQuantile). Tail bounds
// are what SLAs actually say ("95% of requests within 2 s"); they are
// strictly harder than mean bounds of the same magnitude because the tail
// carries the queueing variance.
//
// Each bound is a tail row of the dual decomposition, re-linearized until
// the power settles at the tail problem's own optimum (solveSLA).
func MinimizeEnergyTail(c *cluster.Cluster, o TailOptions) (*Solution, error) {
	if len(o.Bounds) != len(c.Classes) {
		return nil, fmt.Errorf("core: %d tail bounds for %d classes", len(o.Bounds), len(c.Classes))
	}
	return solveSLA(c, nil, o.Bounds, nil)
}
