package experiments

import (
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// E14 is the dispatching extension: the provider's "collection of cluster
// computing resources" contains heterogeneous pools, and arriving traffic
// must be split across them. Compare the optimal (square-root/KKT) split
// against the proportional (equal-utilization) and equal (round-robin)
// heuristics across the load range, with the optimal split's delay verified
// by simulating each pool at its assigned rate (probabilistic splitting of a
// Poisson stream yields exact independent Poisson pools).
type E14 struct{}

func (E14) ID() string { return "E14" }
func (E14) Title() string {
	return "Extension — optimal traffic splitting across heterogeneous pools vs heuristics"
}

func (E14) Run(cfg Config) ([]*Table, error) {
	horizon, reps := cfg.simScale()
	mus := []float64{8, 3, 1.5} // heterogeneous pool rates
	capTotal := 12.5

	fracs := []float64{0.2, 0.4, 0.6, 0.8, 0.92}
	type point struct {
		dOpt, dProp, dEq, sim float64
		active                int
	}
	points, err := sweep(cfg, len(fracs), func(pi int) (point, error) {
		lam := fracs[pi] * capTotal
		x, dOpt, err := queueing.OptimalSplit(lam, mus)
		if err != nil {
			return point{}, err
		}
		dProp, err := queueing.SplitDelay(lam, mus, queueing.ProportionalSplit(lam, mus))
		if err != nil {
			return point{}, err
		}
		dEq, err := queueing.SplitDelay(lam, mus, queueing.EqualSplit(lam, len(mus)))
		if err != nil {
			return point{}, err
		}
		// Simulate the optimal split: each pool is an independent M/M/1
		// at its assigned rate; the overall mean delay is the rate-
		// weighted average.
		var simNum float64
		for i, xi := range x {
			if xi <= 0 {
				continue
			}
			pool := onePool(mus[i])
			pool.Classes[0].Lambda = xi
			res, err := sim.Run(pool, sim.Options{Horizon: horizon, Replications: reps, Seed: cfg.Seed + 14 + uint64(i)})
			if err != nil {
				return point{}, err
			}
			simNum += xi * res.Delay[0].Mean
		}
		return point{
			dOpt: dOpt, dProp: dProp, dEq: dEq, sim: simNum / lam,
			active: len(queueing.ActivePools(x, mus)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t := NewTable("mean delay (s) of the split policies; pools μ = 8/3/1.5",
		"load", "λ (req/s)", "optimal", "proportional", "equal", "active pools", "optimal (sim)")
	for i, frac := range fracs {
		p := points[i]
		t.AddRow(frac, frac*capTotal, p.dOpt, p.dProp, Cell(p.dEq), p.active, Cell(p.sim))
	}
	return []*Table{t}, nil
}

// onePool builds a single M/M/1 pool cluster with unit work and speed mu.
func onePool(mu float64) *cluster.Cluster {
	pm, _ := power.NewPowerLaw(50, 1, 2)
	return &cluster.Cluster{
		Tiers: []*cluster.Tier{{
			Name: "pool", Servers: 1, Speed: mu,
			Discipline: queueing.FCFS, Power: pm,
			Demands: []queueing.Demand{{Work: 1, CV2: 1}},
		}},
		Classes: []cluster.Class{{Name: "x", Lambda: 1}},
	}
}

// E15 is the sleep-state extension: instant-off servers with setup times as
// the alternative (and complement) to DVFS. Sweep the load and compare the
// always-on cluster's power and delay against the sleeping one, analytic
// (Welch + cycle analysis) and simulated, and report the break-even load.
type E15 struct{}

func (E15) ID() string { return "E15" }
func (E15) Title() string {
	return "Extension — sleep states (instant-off + setup) vs always-on: power/delay trade-off"
}

func (E15) Run(cfg Config) ([]*Table, error) {
	horizon, reps := cfg.simScale()
	// Parameters chosen so the trade-off is visible: a long wake-up (four
	// service times, at busy power) against a moderate sleep saving puts
	// the break-even load strictly inside (0, 1) — sleep wins at light
	// load and loses once setup churn dominates.
	const (
		mu        = 1.0 // service rate at the operating speed
		setupMean = 4.0 // four mean service times to wake
		sleepW    = 60.0
	)
	pm, _ := power.NewPowerLaw(100, 50, 1) // idle 100, busy 150 at speed 1
	service := queueing.NewExponential(1 / mu)
	setup := queueing.NewExponential(setupMean)

	mk := func(lam float64) *cluster.Cluster {
		return &cluster.Cluster{
			Tiers: []*cluster.Tier{{
				Name: "t", Servers: 1, Speed: 1,
				Discipline: queueing.NonPreemptive, Power: pm,
				Demands: []queueing.Demand{{Work: 1, CV2: 1}},
			}},
			Classes: []cluster.Class{{Name: "a", Lambda: lam}},
		}
	}

	rhos := []float64{0.1, 0.25, 0.45, 0.65, 0.85}
	type point struct {
		onPower, mPower, mOn, mSleep float64
		res                          *sim.Result
	}
	points, err := sweep(cfg, len(rhos), func(i int) (point, error) {
		rho := rhos[i]
		lam := rho * mu
		mm1, _ := queueing.NewMM1(lam, mu)
		qs, err := queueing.NewMG1Setup(lam, service, setup)
		if err != nil {
			return point{}, err
		}
		res, err := sim.Run(mk(lam), sim.Options{
			Horizon: horizon, Replications: reps, Seed: cfg.Seed + 15,
			Sleep: []*sim.SleepConfig{{Setup: setup, SleepPower: sleepW}},
		})
		if err != nil {
			return point{}, err
		}
		return point{
			onPower: rho*pm.BusyPower(1) + (1-rho)*pm.IdlePower(1),
			mPower:  qs.SleepAveragePower(pm.BusyPower(1), pm.BusyPower(1), sleepW),
			mOn:     mm1.MeanResponse(), mSleep: qs.MeanResponse(), res: res,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t := NewTable("always-on vs instant-off (model and simulation)",
		"load", "on: power W", "sleep: power W (model)", "sleep: power W (sim)",
		"on: delay s", "sleep: delay s (model)", "sleep: delay s (sim)")
	for i, rho := range rhos {
		p := points[i]
		t.AddRow(rho, p.onPower, p.mPower,
			PlusMinus(p.res.TotalPower.Mean, p.res.TotalPower.HalfW),
			p.mOn, p.mSleep,
			PlusMinus(p.res.Delay[0].Mean, p.res.Delay[0].HalfW))
	}

	be := queueing.SleepBreakEvenLoad(service, setup, pm.BusyPower(1), pm.BusyPower(1), sleepW, pm.IdlePower(1))
	t2 := NewTable("break-even analysis", "quantity", "value")
	t2.AddRow("break-even load ρ* (sleep saves power below this)", be)
	t2.AddRow("delay penalty at ρ* (s, Welch)", func() float64 {
		q, _ := queueing.NewMG1Setup(be*mu, service, setup)
		return q.SetupPenalty()
	}())
	return []*Table{t, t2}, nil
}

// E16 is the tail-SLA extension of C3: how much more power a percentile
// guarantee costs than a mean guarantee of the same magnitude, with the
// achieved tail verified by simulation.
type E16 struct{}

func (E16) ID() string { return "E16" }
func (E16) Title() string {
	return "Extension — C3 with percentile (tail) bounds: power premium over mean bounds, sim-verified"
}

func (E16) Run(cfg Config) ([]*Table, error) {
	horizon, reps := cfg.simScale()
	c, xs, err := e16Bounds()
	if err != nil {
		return nil, err
	}

	// Each bound is a self-contained sweep point (two solver runs plus a
	// verification simulation); the point returns its finished table row.
	rows, err := sweep(cfg, len(xs), func(i int) ([]any, error) {
		x := xs[i]
		meanSol, err := core.MinimizeEnergyPerClass(c, core.EnergyOptions{MaxClassDelay: []float64{0, 0, x}})
		if err != nil {
			return []any{x, "infeasible", "-", "-", "-", "-"}, nil
		}
		tailSol, err := core.MinimizeEnergyTail(c, core.TailOptions{
			Bounds: []core.TailBound{{}, {}, {Delay: x, Percentile: 0.95}},
		})
		if err != nil {
			return []any{x, meanSol.Objective, "infeasible", "-", "-", "-"}, nil
		}
		qModel, err := cluster.DelayQuantile(tailSol.Cluster, tailSol.Metrics, 2, 0.95)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(tailSol.Cluster, sim.Options{
			Horizon: horizon, Replications: reps, Seed: cfg.Seed + 16,
			Quantiles: []float64{0.95},
		})
		simQ := math.NaN()
		if err == nil {
			simQ = res.DelayQuantile[2][0.95]
		}
		premium := (tailSol.Objective - meanSol.Objective) / meanSol.Objective
		return []any{x, meanSol.Objective, tailSol.Objective, Pct(premium), qModel, Cell(simQ)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := NewTable("power to guarantee the bronze class a delay X: mean vs p95 bound",
		"X (s)", "mean-bound power (W)", "p95-bound power (W)", "premium",
		"achieved p95 (model)", "achieved p95 (sim)")
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// e16Bounds returns E16's cluster and its bronze delay bounds X: 3, 5 and 8
// times the best achievable bronze mean delay.
func e16Bounds() (*cluster.Cluster, []float64, error) {
	c := workload.Enterprise3Tier(1)
	_, hi := c.SpeedBounds()
	fast := c.Clone()
	if err := fast.SetSpeeds(hi); err != nil {
		return nil, nil, err
	}
	mFast, err := cluster.Evaluate(fast)
	if err != nil {
		return nil, nil, err
	}
	xs := []float64{3, 5, 8}
	for i := range xs {
		xs[i] *= mFast.Delay[2]
	}
	return c, xs, nil
}
