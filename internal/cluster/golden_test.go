package cluster_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
	"clusterq/internal/workload"
)

// evaluateDump renders every output Evaluate, SpeedBounds and DelayQuantile
// (at p = 0.95) produce for c as one line per number, each carrying the
// number's exact bit pattern. An Evaluate error is rendered in place of its
// outputs.
func evaluateDump(c *cluster.Cluster) string {
	var b strings.Builder
	put := func(name string, v float64) {
		fmt.Fprintf(&b, "%s %016x %g\n", name, math.Float64bits(v), v)
	}
	lo, hi := c.SpeedBounds()
	for j := range lo {
		put(fmt.Sprintf("lo[%d]", j), lo[j])
		put(fmt.Sprintf("hi[%d]", j), hi[j])
	}
	m, err := cluster.Evaluate(c)
	if err != nil {
		fmt.Fprintf(&b, "Evaluate error %v\n", err)
		return b.String()
	}
	for k := range c.Classes {
		put(fmt.Sprintf("Delay[%d]", k), m.Delay[k])
		put(fmt.Sprintf("EnergyPerRequest[%d]", k), m.EnergyPerRequest[k])
		for j := range c.Tiers {
			put(fmt.Sprintf("PerStation[%d][%d]", k, j), m.Breakdown.PerStation[k][j])
			put(fmt.Sprintf("Wait[%d][%d]", k, j), m.Breakdown.Wait[k][j])
		}
		q, err := cluster.DelayQuantile(c, m, k, 0.95)
		if err != nil {
			fmt.Fprintf(&b, "Q95[%d] error %v\n", k, err)
		} else {
			put(fmt.Sprintf("Q95[%d]", k), q)
		}
	}
	put("WeightedDelay", m.WeightedDelay)
	put("EnergyPerJob", m.EnergyPerJob)
	put("TotalPower", m.TotalPower)
	put("StaticPower", m.StaticPower)
	put("DynamicPower", m.DynamicPower)
	for j, tm := range m.Tiers {
		put(fmt.Sprintf("Utilization[%d]", j), tm.Utilization)
		put(fmt.Sprintf("Static[%d]", j), tm.Power.Static)
		put(fmt.Sprintf("Dynamic[%d]", j), tm.Power.Dynamic)
	}
	return b.String()
}

// TestEvaluateGolden pins the exact bits of the C1 evaluation (delays,
// per-tier waits and responses, powers, energies, utilizations), the speed
// bounds and the p95 delay quantiles on clusters that cover every route
// style, availability, discipline, power-model family and the zero-traffic
// and saturated edges. Any change to the evaluation's arithmetic, including
// its summation order, changes a hash.
func TestEvaluateGolden(t *testing.T) {
	table, err := power.NewTable(120, []float64{2, 4, 6, 8}, []float64{150, 190, 260, 370})
	if err != nil {
		t.Fatal(err)
	}
	base := func() *cluster.Cluster { return workload.Enterprise3Tier(1) }
	cases := []struct {
		name   string
		build  func() *cluster.Cluster
		golden string
	}{
		{"enterprise", base, "f276963df854986da0b98acf98e3d9bbbd43a5b8fe0b74fc96c281b7adc33a50"},
		{"heavydb", func() *cluster.Cluster { return workload.Enterprise3TierHeavyDB(1) }, "975685c98e1c75b8fc7836d4a9960b032cacd0296e85776f76ccba2f825d49dd"},
		{"partial-revisit", func() *cluster.Cluster {
			c := base()
			c.Routes = [][]int{{0, 1, 2}, {1, 2, 1}, {0}}
			return c
		}, "8851a73494d2a35568171653b5c51de1c14dfe44a9b46f9561750b4e6e2e4caa"},
		{"retry-chain", func() *cluster.Cluster {
			c := base()
			c.Routing = []*queueing.ClassRouting{nil, nil, {
				Entry: []float64{1, 0, 0},
				Next:  [][]float64{{0, 1, 0}, {0, 0, 1}, {0, 0.3, 0}},
			}}
			return c
		}, "70288d1f5d0bde8a845033dc9aaf34de9104c010c99a702ea1d98bb9d53d53cf"},
		{"availability", func() *cluster.Cluster {
			c := base()
			c.Tiers[1].Availability = 0.9
			c.Tiers[2].Availability = 0.9
			return c
		}, "0730d5930bda52017f537678ade4d558ec3d8026016a56f0a172efca29ca7af2"},
		{"multiserver-disciplines", func() *cluster.Cluster {
			c := base()
			c.Tiers[0].Servers = 4
			c.Tiers[1].Servers = 1
			c.Tiers[1].Speed = 8
			c.Tiers[1].Discipline = queueing.PreemptiveResume
			c.Tiers[2].Servers = 3
			c.Tiers[2].Discipline = queueing.FCFS
			return c
		}, "2fa7d6450f6e310994192d92374c611f65cfa79fc818b3e2a730ce6fe2431296"},
		{"multiserver-preemptive", func() *cluster.Cluster {
			// No closed form: Evaluate's error is pinned.
			c := base()
			c.Tiers[0].Servers = 4
			c.Tiers[0].Discipline = queueing.PreemptiveResume
			return c
		}, "c7eb0581a698917982a598e14f4b330659f99c101bdd210de35585f90abed366"},
		{"power-table", func() *cluster.Cluster {
			c := base()
			c.Tiers[2].Power = table
			return c
		}, "ace12b66d025f7a6b7787e35c11c4f03c296b2c1f0d093830ea89780e3a40f66"},
		{"zero-traffic", func() *cluster.Cluster {
			c := base()
			for k := range c.Classes {
				c.Classes[k].Lambda = 0
			}
			return c
		}, "2c0822aa1be90827cd1446e756f83d2313446d21bbd7b8565f71094c461ede0d"},
		{"saturated", func() *cluster.Cluster {
			c := base()
			c.Tiers[2].Speed = 1 // 5.16 work/s offered to 2 servers at speed 1
			return c
		}, "91c3f1a0e916e5730fcc5dac1b49d10f32f11cd0b33208d258ce45c9437d3d71"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dump := evaluateDump(tc.build())
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(dump))); got != tc.golden {
				t.Errorf("hash %s, want %s; outputs:\n%s", got, tc.golden, dump)
			}
		})
	}
}
