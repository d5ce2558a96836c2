package core

import (
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
	"clusterq/internal/workload"
)

// TestTierEvalAllocationFree: one tier evaluation, the solvers' inner loop,
// allocates nothing, whether through cluster.TierModel.Eval or through the
// tier Lagrangian that argmin minimizes. It covers the heavy-database
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
			if _, _, _, err := f.m.Eval(s); err != nil {
				t.Fatalf("%s tier %d: %v", c.name, j, err)
			}
			if n := testing.AllocsPerRun(100, func() { f.m.Eval(s) }); n != 0 {
				t.Errorf("%s tier %d: TierModel.Eval made %v allocations, want 0", c.name, j, n)
			}
			if n := testing.AllocsPerRun(100, func() { f.lagrangian(s, 1, theta) }); n != 0 {
				t.Errorf("%s tier %d: tierFn.lagrangian made %v allocations, want 0", c.name, j, n)
			}
		}
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
