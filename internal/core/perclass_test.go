package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// randomPerClassCluster draws a C3b instance with the structure the dual must
// handle: 2–5 tiers and 2–4 classes, power laws with γ from 1 to 3, one tier
// degraded by availability, one tier on a measured power table, one class on
// a probabilistic route with a retry loop, and one class without a bound. The bounds sit between the
// class delays at maximum speeds and a few times those delays.
func randomPerClassCluster(rng *rand.Rand) (*cluster.Cluster, []float64) {
	nj, nk := 2+rng.Intn(4), 2+rng.Intn(3)
	degraded, tabled := rng.Intn(nj), rng.Intn(nj)
	tiers := make([]*cluster.Tier, nj)
	for j := range tiers {
		var pm power.Model
		if j == tabled {
			// Measured points of a busy-power curve: half the time exact
			// points of a convex one, otherwise with ±40% measurement noise
			// (kept increasing), which makes the curve non-convex.
			speeds := []float64{1, 3, 5, 7, 9, 12}
			busy := make([]float64, len(speeds))
			base, kappa, gamma := 60+20*rng.Float64(), 0.1+0.5*rng.Float64(), 1+2*rng.Float64()
			noise := 0.8 * float64(rng.Intn(2))
			for i, s := range speeds {
				busy[i] = base + kappa*math.Pow(s, gamma)*(1+noise*(rng.Float64()-0.5))
				if i > 0 {
					busy[i] = math.Max(busy[i], busy[i-1]+1)
				}
			}
			tb, err := power.NewTable(40+20*rng.Float64(), speeds, busy)
			if err != nil {
				panic(err)
			}
			pm = tb
		} else {
			pl, err := power.NewPowerLaw(20+80*rng.Float64(), 0.1+rng.Float64(), 1+2*rng.Float64())
			if err != nil {
				panic(err)
			}
			pm = pl
		}
		demands := make([]queueing.Demand, nk)
		for k := range demands {
			demands[k] = queueing.Demand{Work: 0.3 + 2*rng.Float64(), CV2: []float64{0, 0.5, 1, 2}[rng.Intn(4)]}
		}
		tiers[j] = &cluster.Tier{
			Name: string(rune('A' + j)), Servers: 1 + rng.Intn(3),
			MinSpeed: 0.5, MaxSpeed: 10 + 2*rng.Float64(),
			Discipline: []queueing.Discipline{queueing.NonPreemptive, queueing.FCFS}[rng.Intn(2)],
			Power:      pm, Demands: demands,
		}
		tiers[j].Speed = tiers[j].MaxSpeed
		if j == degraded {
			tiers[j].Availability = 0.7 + 0.25*rng.Float64()
		}
	}
	classes := make([]cluster.Class, nk)
	for k := range classes {
		classes[k] = cluster.Class{Name: string(rune('a' + k)), Lambda: 0.2 + rng.Float64()}
	}
	// One class enters at the first tier, walks the tiers in order and
	// retries the last one with probability 0.3.
	routing := make([]*queueing.ClassRouting, nk)
	entry := make([]float64, nj)
	entry[0] = 1
	next := make([][]float64, nj)
	for j := range next {
		next[j] = make([]float64, nj)
		if j+1 < nj {
			next[j][j+1] = 1
		}
	}
	next[nj-1][nj-1] = 0.3
	routing[rng.Intn(nk)] = &queueing.ClassRouting{Entry: entry, Next: next}
	c := &cluster.Cluster{Tiers: tiers, Classes: classes, Routing: routing}
	u := bottleneckUtilization(c)
	for k := range c.Classes {
		c.Classes[k].Lambda *= (0.3 + 0.4*rng.Float64()) / u
	}
	_, hi := c.SpeedBounds()
	fast := c.Clone()
	if err := fast.SetSpeeds(hi); err != nil {
		panic(err)
	}
	m, err := cluster.Evaluate(fast)
	if err != nil {
		panic(err)
	}
	bounds := make([]float64, nk)
	free := rng.Intn(nk)
	for k := range bounds {
		if k != free {
			bounds[k] = m.Delay[k] * (1.05 + 3*rng.Float64())
		}
	}
	return c, bounds
}

// TestPerClassDualCertifiedRandom checks the C3b dual on random instances
// (200, or 50 under -short): convergence, every bound met, complementary
// slackness at the returned multipliers, and a certified duality gap.
func TestPerClassDualCertifiedRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(12))
	n := 200
	if testing.Short() {
		n = 50
	}
	for i := 0; i < n; i++ {
		c, bounds := randomPerClassCluster(rng)
		sol, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !sol.Result.Converged {
			t.Errorf("instance %d: dual did not converge", i)
		}
		for k, b := range bounds {
			nu := sol.Multipliers[k]
			if b <= 0 {
				if nu != 0 {
					t.Errorf("instance %d: unbounded class %d has multiplier %g", i, k, nu)
				}
				continue
			}
			slack := sol.Metrics.Delay[k]/b - 1
			if !(slack <= 1e-6) {
				t.Errorf("instance %d: class %d delay %.9g exceeds bound %.9g", i, k, sol.Metrics.Delay[k], b)
			}
			if nu*math.Abs(slack) > 1e-6*sol.Objective ||
				(nu > 1e-3*sol.Objective && math.Abs(slack) > 1e-5) {
				t.Errorf("instance %d: class %d multiplier %g with relative slack %g", i, k, nu, slack)
			}
		}
		certifySLA(t, fmt.Sprintf("instance %d", i), c, bounds, nil, sol, certGapTol)
	}
}

// TestPerClassNonConvexTable: a power table whose busy power is not convex in
// speed makes its tier's curve non-convex in 1/s, and a single dual over the
// whole speed box would leave a gap. Solved per convex part, the dual's
// answer must still certify across bound levels.
func TestPerClassNonConvexTable(t *testing.T) {
	c := nonConvexTableCluster()
	_, hi := c.SpeedBounds()
	mFast := dualPinMetrics(c, hi)
	for _, f := range []float64{1.2, 1.5, 2, 3, 5} {
		bounds := []float64{0, f * mFast.Delay[1]}
		sol, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds})
		if err != nil {
			t.Fatalf("bound ×%g: %v", f, err)
		}
		if !sol.Result.Converged {
			t.Errorf("bound ×%g: dual did not converge", f)
		}
		if !(sol.Metrics.Delay[1] <= bounds[1]*(1+1e-6)) {
			t.Errorf("bound ×%g: delay %g exceeds bound %g", f, sol.Metrics.Delay[1], bounds[1])
		}
		certifySLA(t, fmt.Sprintf("bound ×%g", f), c, bounds, nil, sol, certGapTol)
	}
}

// TestPerClassInfeasibleError pins the error the online controller's
// fallback depends on.
func TestPerClassInfeasibleError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, bounds := randomPerClassCluster(rng)
	for k := range bounds {
		if bounds[k] > 0 {
			bounds[k] = 1e-6
			break
		}
	}
	_, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds})
	if err == nil || !strings.Contains(err.Error(), "infeasible") || !strings.Contains(err.Error(), "class ") {
		t.Fatalf("got %v, want the class-bound infeasibility error", err)
	}
}

// TestTierArgminIsGlobal checks each tier's 1-D Lagrangian minimizer against
// a dense grid on the tier's speed range, for every shipped power model and
// for multipliers from zero to large.
func TestTierArgminIsGlobal(t *testing.T) {
	t.Parallel()
	c := symCluster(4, 2, 0.5)
	c.Tiers[0].Power = power.Linear{Idle: 40, Slope: 12}
	// Not convex in speed: a steep step, a plateau, then a steep climb.
	tb, err := power.NewTable(30, []float64{1, 2, 4, 6, 8, 12}, []float64{40, 90, 95, 120, 200, 420})
	if err != nil {
		t.Fatal(err)
	}
	c.Tiers[1].Power = tb
	c.Tiers[1].MaxSpeed = 12
	c.Tiers[2].Availability = 0.85
	pl, err := power.NewPowerLaw(20, 8, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	c.Tiers[3].Power = pl
	tf, err := newTierFns(c)
	if err != nil {
		t.Fatal(err)
	}
	for j := range tf.tiers {
		f := &tf.tiers[j]
		for _, nu := range []float64{0, 0.1, 1, 10, 100, 1e3, 1e4} {
			theta := []float64{nu, 2 * nu}
			s := f.argmin(1, theta)
			got, _, _ := f.lagrangian(s, false, 1, theta)
			const n = 20000
			for i := 0; i <= n; i++ {
				x := tf.lo[j] + (tf.hi[j]-tf.lo[j])*float64(i)/n
				if v, _, _ := f.lagrangian(x, false, 1, theta); v < got-1e-9*math.Abs(got) {
					t.Errorf("tier %d (%v) ν=%g: argmin %g gives %.12g, grid point %g gives %.12g",
						j, f.m.Power, nu, s, got, x, v)
					break
				}
			}
		}
	}
}

// TestDualsHonourAvailability: the decomposed solvers must see a degraded
// tier the way cluster.Evaluate does (capacity Speed·A, busy and static
// power scaled by A). Otherwise they plan for capacity the tier does not
// have and the returned operating point misses the bound it was solved for.
func TestDualsHonourAvailability(t *testing.T) {
	c := symCluster(3, 3, 0.4)
	c.Tiers[2].Availability = 0.8
	_, hi := c.SpeedBounds()
	fast := c.Clone()
	if err := fast.SetSpeeds(hi); err != nil {
		t.Fatal(err)
	}
	mFast, err := cluster.Evaluate(fast)
	if err != nil {
		t.Fatal(err)
	}

	bound := 1.5 * mFast.WeightedDelay
	e, err := MinimizeEnergyDual(c, EnergyOptions{MaxWeightedDelay: bound})
	if err != nil {
		t.Fatal(err)
	}
	if !(e.Metrics.WeightedDelay <= bound*(1+1e-6)) {
		t.Errorf("C3a dual: weighted delay %g misses its bound %g", e.Metrics.WeightedDelay, bound)
	}
	if !almostEq(e.Objective, e.Metrics.TotalPower, 1e-9) {
		t.Errorf("C3a dual: objective %g W is not the evaluated power %g W", e.Objective, e.Metrics.TotalPower)
	}

	budget := 0.5 * (mFast.TotalPower + e.Metrics.TotalPower)
	d, err := MinimizeDelayDual(c, DelayOptions{EnergyBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !(d.Metrics.TotalPower <= budget*(1+1e-6)) {
		t.Errorf("C2 dual: power %g W exceeds its budget %g W", d.Metrics.TotalPower, budget)
	}
	if !almostEq(d.Objective, d.Metrics.WeightedDelay, 1e-9) {
		t.Errorf("C2 dual: objective %g s is not the evaluated delay %g s", d.Objective, d.Metrics.WeightedDelay)
	}
}

// bottleneckUtilization returns the highest per-server utilization over the
// cluster's tiers at their current speeds.
func bottleneckUtilization(c *cluster.Cluster) float64 {
	u := math.Inf(-1)
	for _, m := range c.TierModels() {
		if r := m.Utilization(); r > u {
			u = r
		}
	}
	return u
}
