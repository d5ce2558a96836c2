package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/workload"
)

var updateDualPins = flag.Bool("update-dual-pins", false,
	"rewrite testdata/mean_dual_pins.json from the current C2/C3a solvers")

const dualPinsFile = "testdata/mean_dual_pins.json"

// dualPin is one recorded C2 or C3a answer.
type dualPin struct {
	Objective float64   `json:"objective"`
	Speeds    []float64 `json:"speeds"`
}

// dualPinCase is one C2 or C3a instance: which problem, on which cluster,
// at which constraint value.
type dualPinCase struct {
	name    string
	c       *cluster.Cluster
	kind    string // "c2", "c2w" (C2 with Weights) or "c3a"
	limit   float64
	weights []float64
}

// solve runs the case's solver and also returns the quantity its limit
// bounds, read off the evaluated metrics: the total power (C2) or the
// weighted delay (C3a).
func (pc dualPinCase) solve() (sol *Solution, value float64, err error) {
	switch pc.kind {
	case "c3a":
		sol, err = MinimizeEnergy(pc.c, EnergyOptions{MaxWeightedDelay: pc.limit})
		if err == nil {
			value = sol.Metrics.WeightedDelay
		}
	default:
		sol, err = MinimizeDelay(pc.c, DelayOptions{EnergyBudget: pc.limit, Weights: pc.weights})
		if err == nil {
			value = sol.Metrics.TotalPower
		}
	}
	return sol, value, err
}

// dualPinMetrics evaluates c at the given speeds.
func dualPinMetrics(c *cluster.Cluster, speeds []float64) *cluster.Metrics {
	x := c.Clone()
	if err := x.SetSpeeds(speeds); err != nil {
		panic(err)
	}
	m, err := cluster.Evaluate(x)
	if err != nil {
		panic(err)
	}
	return m
}

// rampWeights returns the non-uniform delay weights w_k = k: the first class
// carries none, so its delay is a zero coefficient of the Lagrangian.
func rampWeights(nk int) []float64 {
	w := make([]float64, nk)
	for k := range w {
		w[k] = float64(k)
	}
	return w
}

// gridCases spreads C2, weighted C2 and C3a over seven constraint levels of
// c's own range: power budgets from just above the slowest point's power to
// the fastest point's, and aggregate delay bounds geometric from the fastest
// point's delay to the slowest point's.
func gridCases(name string, c *cluster.Cluster) []dualPinCase {
	lo, hi := c.SpeedBounds()
	mLo, mHi := dualPinMetrics(c, lo), dualPinMetrics(c, hi)
	var out []dualPinCase
	for l, f := range []float64{0.01, 0.05, 0.15, 0.3, 0.5, 0.75, 1} {
		budget := mLo.TotalPower + f*(mHi.TotalPower-mLo.TotalPower)
		bound := mHi.WeightedDelay * math.Pow(mLo.WeightedDelay/mHi.WeightedDelay, f)
		out = append(out,
			dualPinCase{name: fmt.Sprintf("%s/c2/level%d", name, l), c: c, kind: "c2", limit: budget},
			dualPinCase{name: fmt.Sprintf("%s/c2w/level%d", name, l), c: c, kind: "c2w", limit: budget,
				weights: rampWeights(len(c.Classes))},
			dualPinCase{name: fmt.Sprintf("%s/c3a/level%d", name, l), c: c, kind: "c3a", limit: bound})
	}
	return out
}

// nonConvexTableCluster is the cluster of TestMeanDualsNonConvexTable.
func nonConvexTableCluster() *cluster.Cluster {
	c := symCluster(2, 2, 0.5)
	tb, err := power.NewTable(30, []float64{1, 2.5, 4, 5.5, 8}, []float64{40, 46, 69, 134, 226})
	if err != nil {
		panic(err)
	}
	c.Tiers[1].Power = tb
	return c
}

// randomDualCases draws n seeded randomPerClassCluster instances, each with
// a C2 budget, random C2 weights and a C3a bound inside its feasible range.
// The budgets start from the slowest point's power, which C2 once took for
// the least; cheapC2Cases adds budgets below it.
func randomDualCases(n int) []dualPinCase {
	rng := rand.New(rand.NewSource(17))
	var out []dualPinCase
	for i := 0; i < n; i++ {
		c, _ := randomPerClassCluster(rng)
		lo, hi := c.SpeedBounds()
		mLo, mHi := dualPinMetrics(c, lo), dualPinMetrics(c, hi)
		budget := mLo.TotalPower + (0.02+0.96*rng.Float64())*math.Abs(mHi.TotalPower-mLo.TotalPower)
		bound := mHi.WeightedDelay * (1.02 + 3*rng.Float64())
		w := make([]float64, len(c.Classes))
		for k := range w {
			w[k] = 0.1 + rng.Float64()
		}
		name := fmt.Sprintf("random%02d", i)
		out = append(out,
			dualPinCase{name: name + "/c2", c: c, kind: "c2", limit: budget},
			dualPinCase{name: name + "/c2w", c: c, kind: "c2w", limit: budget, weights: w},
			dualPinCase{name: name + "/c3a", c: c, kind: "c3a", limit: bound})
	}
	return out
}

func dualPinCases() []dualPinCase {
	var out []dualPinCase
	for _, load := range []float64{0.8, 1.0, 1.2} {
		out = append(out, gridCases(fmt.Sprintf("heavydb%.1f", load), workload.Enterprise3TierHeavyDB(load))...)
	}
	for _, s := range []struct{ j, k int }{{2, 2}, {3, 3}, {5, 3}, {8, 4}} {
		out = append(out, gridCases(fmt.Sprintf("scalable%dx%d", s.j, s.k), workload.Scalable(s.j, s.k, 1))...)
	}
	out = append(out, gridCases("nonconvex", nonConvexTableCluster())...)
	out = append(out, randomDualCases(48)...)
	// The symmetric shapes the duals were first compared with a general
	// solver on.
	out = append(out,
		dualPinCase{name: "sym2x2/c3a", c: symCluster(2, 2, 0.6), kind: "c3a", limit: 3},
		dualPinCase{name: "sym3x3/c3a", c: symCluster(3, 3, 0.6), kind: "c3a", limit: 3},
		dualPinCase{name: "sym3x2/c2", c: symCluster(3, 2, 0.6), kind: "c2", limit: 700})
	return append(out, cheapC2Cases(out)...)
}

// cheapC2Cases returns, for every cluster of the cases whose fastest point
// draws less power than its slowest (a table tier whose power falls with
// speed), a C2 budget halfway between the two powers. Full speed meets it,
// but C2 used to reject it as below the "minimum stable power" of the
// slowest point.
func cheapC2Cases(cases []dualPinCase) []dualPinCase {
	var out []dualPinCase
	seen := make(map[*cluster.Cluster]bool)
	for _, pc := range cases {
		if seen[pc.c] {
			continue
		}
		seen[pc.c] = true
		lo, hi := pc.c.SpeedBounds()
		pLo, pHi := dualPinMetrics(pc.c, lo).TotalPower, dualPinMetrics(pc.c, hi).TotalPower
		if pHi < pLo {
			name := pc.name[:strings.Index(pc.name, "/")] + "/c2cheap"
			out = append(out, dualPinCase{name: name, c: pc.c, kind: "c2", limit: (pLo + pHi) / 2})
		}
	}
	return out
}

// onListedSpeed reports whether some table tier of c runs exactly at one of
// its table's listed speeds.
func onListedSpeed(c *cluster.Cluster, speeds []float64) bool {
	for j, tier := range c.Tiers {
		if tb, ok := tier.Power.(*power.Table); ok {
			for _, s := range tb.Speeds {
				if math.Abs(speeds[j]-s) <= 1e-9*s {
					return true
				}
			}
		}
	}
	return false
}

// TestMeanDualPins pins the C2, weighted C2 and C3a answers recorded when
// C2 and C3a bisected one multiplier, before they moved onto the projected
// Newton ascent C3b uses; the symmetric and c2cheap cases were recorded
// from the ascent. Every solve must converge, every constraint must be met
// within 1e-9, every answer must certify its optimality (certifyMean),
// every speed must lie within 1e-6 of its pin, and every objective within
// 1e-9 relative of its pin. One allowance: the bisection stopped at an
// absolute width of its multiplier, which left some C2 budgets up to 1e-8
// unspent; the ascent spends them, so a C2 objective may come out below its
// pin, by at most 1e-8 relative (3e-9 is the largest seen).
// The random instances include table tiers whose optimum sits exactly on a
// listed speed, where the power-only argmin leaves the tier with almost no
// curvature. Regenerate with -update-dual-pins only for a deliberate change
// of answers.
func TestMeanDualPins(t *testing.T) {
	t.Parallel()
	cases := dualPinCases()
	got := make(map[string]dualPin, len(cases))
	onListed := 0
	for _, pc := range cases {
		sol, value, err := pc.solve()
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if !sol.Result.Converged {
			t.Errorf("%s: the dual ascent did not converge", pc.name)
		}
		if !(value <= pc.limit*(1+1e-9)) {
			t.Errorf("%s: constraint %.12g exceeds its limit %.12g", pc.name, value, pc.limit)
		}
		certifyMean(t, pc.name, pc.c, pc.weights, meanProblem(pc.c, pc.kind, pc.limit, pc.weights, nil), sol, certGapTol)
		got[pc.name] = dualPin{Objective: sol.Objective, Speeds: sol.Cluster.Speeds()}
		if pc.kind == "c3a" && onListedSpeed(pc.c, sol.Cluster.Speeds()) {
			onListed++
		}
	}
	if onListed == 0 {
		t.Error("no C3a answer puts a table tier on a listed speed")
	}
	t.Logf("%d cases, %d C3a answers with a table tier on a listed speed", len(cases), onListed)
	path := filepath.FromSlash(dualPinsFile)
	if *updateDualPins {
		// One pin per line, in case order.
		data := []byte("{\n")
		for i, pc := range cases {
			line, err := json.Marshal(got[pc.name])
			if err != nil {
				t.Fatal(err)
			}
			sep := ",\n"
			if i == len(cases)-1 {
				sep = "\n"
			}
			data = fmt.Appendf(data, "%q: %s%s", pc.name, line, sep)
		}
		if err := os.WriteFile(path, append(data, "}\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]dualPin
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	if len(pins) != len(cases) {
		t.Errorf("%d pins for %d cases", len(pins), len(cases))
	}
	for _, pc := range cases {
		pin, ok := pins[pc.name]
		if !ok {
			t.Errorf("%s: no pin", pc.name)
			continue
		}
		g := got[pc.name]
		below := 1e-9
		if pc.kind != "c3a" {
			below = 1e-8
		}
		if rel := g.Objective/pin.Objective - 1; !(rel <= 1e-9 && rel >= -below) {
			t.Errorf("%s: objective %.15g, pinned %.15g (%.2g relative)",
				pc.name, g.Objective, pin.Objective, rel)
		}
		for j, s := range pin.Speeds {
			if !(math.Abs(g.Speeds[j]-s) <= 1e-6*s) {
				t.Errorf("%s: tier %d speed %.12g, pinned %.12g", pc.name, j, g.Speeds[j], s)
			}
		}
	}
}

// TestMeanDualsNearStabilityFloor solves C2 with budgets just above the
// slowest point's power and C3a with bounds just below the slowest point's
// weighted delay, where the optimum lifts a tier a hair off its speed floor,
// 0.1% above the tier's stability limit. There the tier's argmin moves by far
// less than a wide difference quotient resolves and the tier is missing from
// the dual's curvature; the ascent used to give up and fall back to the
// fastest corner, at up to 4.6 times the optimal power. On the non-convex
// table cluster the bounds also sit just below its cheaper part's slowest
// point (weighted delay 1000.67). Every solve must converge and meet its
// bound.
func TestMeanDualsNearStabilityFloor(t *testing.T) {
	t.Parallel()
	var cases []dualPinCase
	nc := nonConvexTableCluster()
	for _, b := range []float64{943, 990, 999, 1000, 1000.6, 1000.66} {
		cases = append(cases, dualPinCase{name: fmt.Sprintf("nonconvex/c3a/%g", b), c: nc, kind: "c3a", limit: b})
	}
	clusters := []*cluster.Cluster{nc}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		c, _ := randomPerClassCluster(rng)
		clusters = append(clusters, c)
	}
	for n, c := range clusters {
		lo, hi := c.SpeedBounds()
		mLo, mHi := dualPinMetrics(c, lo), dualPinMetrics(c, hi)
		for _, f := range []float64{1e-6, 1e-4, 1e-2} {
			cases = append(cases, dualPinCase{name: fmt.Sprintf("%d/c2/%g", n, f), c: c, kind: "c2",
				limit: mLo.TotalPower * (1 + f)})
			if b := mLo.WeightedDelay * (1 - f); b > mHi.WeightedDelay {
				cases = append(cases, dualPinCase{name: fmt.Sprintf("%d/c3a/%g", n, f), c: c, kind: "c3a", limit: b})
			}
		}
	}
	for _, pc := range cases {
		sol, value, err := pc.solve()
		if err != nil {
			t.Errorf("%s: %v", pc.name, err)
			continue
		}
		if !sol.Result.Converged {
			t.Errorf("%s: the dual ascent did not converge (objective %.12g, speeds %v)",
				pc.name, sol.Objective, sol.Cluster.Speeds())
		}
		if !(value <= pc.limit*(1+1e-9)) {
			t.Errorf("%s: constraint %.12g exceeds its limit %.12g", pc.name, value, pc.limit)
		}
	}
}

// TestC2RejectsOnlyInfeasibleBudgets: MinimizeDelay may reject a budget only
// below the cluster's least power, which the checker finds on its own
// (certProblem.leastPower), and must meet every budget it accepts. Where a
// tier's power falls with speed the least power lies below the slowest
// point's, and C2 once rejected every budget between the two.
func TestC2RejectsOnlyInfeasibleBudgets(t *testing.T) {
	t.Parallel()
	for _, pc := range randomDualCases(48) {
		if pc.kind != "c2" {
			continue
		}
		cp := newCertProblem(pc.c, meanProblem(pc.c, "c2", 0, nil, nil), nil)
		least, slowest := cp.leastPower(cp.lo, cp.hi), dualPinMetrics(pc.c, cp.lo).TotalPower
		for _, budget := range []float64{least * (1 - 1e-6), least * (1 + 1e-6), (least + slowest) / 2} {
			cp.pr.bounds[0] = budget
			infeasible := cp.infeasible(cp.lo, cp.hi)
			sol, err := MinimizeDelay(pc.c, DelayOptions{EnergyBudget: budget})
			switch {
			case err != nil && !infeasible:
				t.Errorf("%s: budget %.9g W rejected (%v); least power %.9g W", pc.name, budget, err, least)
			case err == nil && infeasible:
				t.Errorf("%s: budget %.9g W accepted below least power %.9g W", pc.name, budget, least)
			case err == nil && !(sol.Metrics.TotalPower <= budget*(1+1e-9)):
				t.Errorf("%s: power %.9g W exceeds budget %.9g W", pc.name, sol.Metrics.TotalPower, budget)
			}
		}
	}
}
