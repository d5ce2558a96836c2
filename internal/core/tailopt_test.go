package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clusterq/internal/cluster"
)

func TestMinimizeEnergyTailMeetsBounds(t *testing.T) {
	c := symCluster(3, 2, 0.5)
	bounds := []TailBound{
		{Delay: 5, Percentile: 0.95},
		{Delay: 12, Percentile: 0.95},
	}
	sol, err := MinimizeEnergyTail(c, TailOptions{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range bounds {
		q, err := cluster.DelayQuantile(sol.Cluster, sol.Metrics, k, b.Percentile)
		if err != nil {
			t.Fatal(err)
		}
		if q > b.Delay*1.005 {
			t.Errorf("class %d p95 %g exceeds bound %g", k, q, b.Delay)
		}
	}
}

func TestTailBoundCostsMoreThanEqualMeanBound(t *testing.T) {
	// Requiring the p95 below X is strictly harder than requiring the MEAN
	// below X, so it must cost at least as much power.
	c := symCluster(2, 2, 0.5)
	x := 3.0
	meanSol, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: []float64{x, x}})
	if err != nil {
		t.Fatal(err)
	}
	tailSol, err := MinimizeEnergyTail(c, TailOptions{
		Bounds: []TailBound{{Delay: x, Percentile: 0.95}, {Delay: x, Percentile: 0.95}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(tailSol.Objective >= meanSol.Objective*0.999) {
		t.Errorf("tail bound power %g below mean bound power %g", tailSol.Objective, meanSol.Objective)
	}
}

func TestMinimizeEnergyTailUnconstrainedEntries(t *testing.T) {
	c := symCluster(2, 3, 0.4)
	bounds := []TailBound{{}, {}, {Delay: 8, Percentile: 0.9}}
	sol, err := MinimizeEnergyTail(c, TailOptions{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	q, err := cluster.DelayQuantile(sol.Cluster, sol.Metrics, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if q > 8*1.005 {
		t.Errorf("p90 %g exceeds 8", q)
	}
}

func TestMinimizeEnergyTailErrors(t *testing.T) {
	c := symCluster(2, 2, 0.4)
	if _, err := MinimizeEnergyTail(c, TailOptions{Bounds: []TailBound{{}}}); err == nil {
		t.Error("wrong bound count accepted")
	}
	if _, err := MinimizeEnergyTail(c, TailOptions{Bounds: []TailBound{{}, {}}}); err == nil {
		t.Error("all-unconstrained accepted")
	}
	if _, err := MinimizeEnergyTail(c, TailOptions{
		Bounds: []TailBound{{Delay: 1, Percentile: 1.5}, {}},
	}); err == nil {
		t.Error("percentile > 1 accepted")
	}
	if _, err := MinimizeEnergyTail(c, TailOptions{
		Bounds: []TailBound{{Delay: 1e-9, Percentile: 0.95}, {}},
	}); err == nil {
		t.Error("impossible bound accepted")
	}
	// Hostile bounds used to return the slowest speeds as a solution.
	inf, nan := math.Inf(1), math.NaN()
	for _, b := range []TailBound{{Delay: 3, Percentile: nan}, {Delay: nan, Percentile: 0.95}, {Delay: inf, Percentile: 0.95}} {
		_, err := MinimizeEnergyTail(c, TailOptions{Bounds: []TailBound{{Delay: 8, Percentile: 0.9}, b}})
		if err == nil || !strings.Contains(err.Error(), "class 1 ") {
			t.Errorf("tail bound %+v: got %v, want an error naming class 1", b, err)
		}
	}
}

func TestTighterPercentileCostsMore(t *testing.T) {
	c := symCluster(2, 2, 0.5)
	x := 4.0
	p90, err := MinimizeEnergyTail(c, TailOptions{
		Bounds: []TailBound{{}, {Delay: x, Percentile: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p99, err := MinimizeEnergyTail(c, TailOptions{
		Bounds: []TailBound{{}, {Delay: x, Percentile: 0.99}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(p99.Objective >= p90.Objective*0.999) {
		t.Errorf("p99 power %g below p90 power %g", p99.Objective, p90.Objective)
	}
}

// randomTailCase draws a randomPerClassCluster instance with tail bounds on
// one to all of its classes at percentiles 0.5, 0.9, 0.95 or 0.99, each
// between the class's quantile at maximum speeds and a few times it; a third
// of the tail-bounded classes keep their mean bound too.
func randomTailCase(rng *rand.Rand) (*cluster.Cluster, []float64, []TailBound) {
	c, bounds := randomPerClassCluster(rng)
	_, hi := c.SpeedBounds()
	fast := c.Clone()
	if err := fast.SetSpeeds(hi); err != nil {
		panic(err)
	}
	m, err := cluster.Evaluate(fast)
	if err != nil {
		panic(err)
	}
	nk := len(c.Classes)
	mean, tail := make([]float64, nk), make([]TailBound, nk)
	for _, k := range rng.Perm(nk)[:1+rng.Intn(nk)] {
		p := []float64{0.5, 0.9, 0.95, 0.99}[rng.Intn(4)]
		q, err := cluster.DelayQuantile(fast, m, k, p)
		if err != nil {
			panic(err)
		}
		tail[k] = TailBound{Delay: q * (1.05 + 3*rng.Float64()), Percentile: p}
		if rng.Intn(3) == 0 {
			mean[k] = bounds[k]
		}
	}
	return c, mean, tail
}

// TestTailDualCertifiedRandom checks the linearized tail rows on 40 random
// instances: every solve converges with every tail and mean bound met to
// 1e-9 relative, and certifies the final linearization (certifySLA).
func TestTailDualCertifiedRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		c, mean, tail := randomTailCase(rng)
		sol, err := solveSLA(c, mean, tail, nil)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !sol.Result.Converged {
			t.Errorf("instance %d: not converged after %d linearizations", i, sol.Result.Iters)
		}
		for k, b := range tail {
			if b.Delay <= 0 {
				continue
			}
			q, err := cluster.DelayQuantile(sol.Cluster, sol.Metrics, k, b.Percentile)
			if err != nil {
				t.Fatal(err)
			}
			if !(q <= b.Delay*(1+1e-9)) {
				t.Errorf("instance %d: class %d p%g %.12g exceeds bound %.12g", i, k, 100*b.Percentile, q, b.Delay)
			}
		}
		for k, b := range mean {
			if b > 0 && !(sol.Metrics.Delay[k] <= b*(1+1e-9)) {
				t.Errorf("instance %d: class %d delay %.12g exceeds bound %.12g", i, k, sol.Metrics.Delay[k], b)
			}
		}
		certifySLA(t, fmt.Sprintf("instance %d", i), c, mean, tail, sol, certGapTol)
	}
}
