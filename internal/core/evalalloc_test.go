package core

import (
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
	"clusterq/internal/workload"
)

// TestTierEvalAllocationFree: one tier evaluation, the solvers' inner loop,
// allocates nothing, whether through cluster.TierModel.Eval, with or
// without derivatives, or through the tier Lagrangian that argmin
// minimizes. It covers the heavy-database
// cluster's two-server tiers and single-server tiers under each discipline
// with deterministic, Erlang and hyperexponential service.
func TestTierEvalAllocationFree(t *testing.T) {
	single := workload.Enterprise3TierHeavyDB(1)
	disciplines := []queueing.Discipline{queueing.FCFS, queueing.NonPreemptive, queueing.PreemptiveResume}
	for j, tier := range single.Tiers {
		tier.Servers = 1
		tier.Discipline = disciplines[j]
		tier.Demands[0].CV2, tier.Demands[1].CV2 = 0, 0.3
	}
	for _, c := range []struct {
		name    string
		servers int
		tiers   *tierFns
	}{
		{"heavy-db", 2, mustTierFns(t, workload.Enterprise3TierHeavyDB(1))},
		{"single-server", 1, mustTierFns(t, single)},
	} {
		theta := make([]float64, c.tiers.width())
		for k := range theta {
			theta[k] = 1
		}
		for j := range c.tiers.tiers {
			f := &c.tiers.tiers[j]
			if got := f.m.Station.Servers; got != c.servers {
				t.Fatalf("%s tier %d has %d servers, want %d", c.name, j, got, c.servers)
			}
			s := (c.tiers.lo[j] + c.tiers.hi[j]) / 2
			if _, _, _, err := f.m.Eval(s, nil, nil); err != nil {
				t.Fatalf("%s tier %d: %v", c.name, j, err)
			}
			d1, d2 := make([]float64, len(theta)+1), make([]float64, len(theta)+1)
			if n := testing.AllocsPerRun(100, func() { f.m.Eval(s, nil, nil) }); n != 0 {
				t.Errorf("%s tier %d: TierModel.Eval made %v allocations, want 0", c.name, j, n)
			}
			if n := testing.AllocsPerRun(100, func() { f.m.Eval(s, d1, d2) }); n != 0 {
				t.Errorf("%s tier %d: TierModel.Eval with derivatives made %v allocations, want 0", c.name, j, n)
			}
			for i, slopes := range []bool{false, true} {
				// A new speed each run, so the memo evaluates it.
				x := s * (1 + 1e-6*float64(i))
				if n := testing.AllocsPerRun(100, func() { x *= 1 + 1e-9; f.lagrangian(x, slopes, 1, theta) }); n != 0 {
					t.Errorf("%s tier %d: tierFn.lagrangian (derivatives %t) made %v allocations, want 0", c.name, j, slopes, n)
				}
			}
		}
	}
}

// warmResolveAllocs is what one warm C3b re-solve allocates in
// TestWarmResolveAllocations, measured once the dual's iterations reused
// one workspace per solve, each tier memoised its evaluations, the speed
// bounds came from the solve's own tier models and TierModels filled the
// classes' visit rates into one scratch vector (each station's moment
// recipes are one allocation of their own), and once the dual stopped
// recording a convergence trace. Before those, a re-solve allocated 204
// objects, then 76, then 66, then 62.
const warmResolveAllocs = 58

// TestWarmResolveAllocations holds the allocations of the online
// controller's re-solve: C3b on the three-tier enterprise cluster at loads
// 1.1 to 1.9 in steps of 0.1, each solve warm-started from the last one's
// multipliers, the first from the solution at load 1. A solve's dual
// iterations allocate nothing, so what it allocates is its set-up and its
// reported solution.
func TestWarmResolveAllocations(t *testing.T) {
	base := workload.Enterprise3Tier(1)
	bounds := make([]float64, len(base.Classes))
	for k, cl := range base.Classes {
		bounds[k] = cl.SLA.MaxMeanDelay
	}
	var cs []*cluster.Cluster
	for i := 0; i < 10; i++ {
		cs = append(cs, workload.ScaleArrivals(base, 1+0.1*float64(i)))
	}
	sol, err := MinimizeEnergyPerClass(cs[0], EnergyOptions{MaxClassDelay: bounds})
	if err != nil {
		t.Fatal(err)
	}
	nu0 := sol.Multipliers
	n := testing.AllocsPerRun(10, func() {
		nu := nu0
		for _, c := range cs[1:] {
			sol, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds, WarmStart: nu})
			if err != nil {
				t.Fatal(err)
			}
			nu = sol.Multipliers
		}
	})
	perSolve := n / float64(len(cs)-1)
	t.Logf("%.1f allocations per warm re-solve", perSolve)
	if perSolve > warmResolveAllocs {
		t.Errorf("%.1f allocations per warm re-solve, want at most %d", perSolve, warmResolveAllocs)
	}
}

func mustTierFns(t *testing.T, c *cluster.Cluster) *tierFns {
	t.Helper()
	tf, err := newTierFns(c)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}
