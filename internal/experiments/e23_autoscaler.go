package experiments

import (
	"fmt"

	"clusterq/internal/cluster"
	"clusterq/internal/control"
	"clusterq/internal/core"
	"clusterq/internal/obs/window"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// E23 closes ROADMAP item 1's loop: under three transient workloads — a
// diurnal ramp, a flash crowd, and a repeating multi-period staircase — it
// compares three operating strategies on the canonical cluster:
//
//   - static: one offline C3b solve provisioned for the scenario's PEAK
//     load (the conservative plan an operator ships without online
//     control), held for the whole run;
//   - reactive: the per-station utilization-target DVFS controller,
//     starting from the static-peak plan;
//   - model: the model-driven autoscaler (internal/control) re-solving C3b
//     each epoch against windowed arrival-rate estimates, starting from the
//     static-peak plan.
//
// Expected shape: the model controller tracks the load curve, so it spends
// close to the static plan's power only at the peak and far less elsewhere —
// beating static on energy at equal-or-better SLA misses — while the
// SLA-blind reactive policy saves power but concedes misses on the tightest
// class.
type E23 struct{}

func (E23) ID() string { return "E23" }
func (E23) Title() string {
	return "Extension — closing the loop: model-driven autoscaler vs static plan vs reactive DVFS under transient load"
}

// e23Row is one (scenario, strategy) cell in structured form, shared by the
// table rendering and the acceptance test pinning "model beats static".
type e23Row struct {
	scenario, strategy string
	power              float64 // mean cluster power (W)
	weighted           float64 // completion-weighted mean delay (s)
	misses             int     // classes whose mean delay exceeds their SLA bound
	worstFrac          float64 // max over bounded classes of delay/bound
	stats              control.Stats
	model              bool
}

func (E23) Run(cfg Config) ([]*Table, error) {
	rows, err := e23Rows(cfg)
	if err != nil {
		return nil, err
	}
	t := NewTable("transient strategies (simulated; static is provisioned for each scenario's peak)",
		"scenario", "strategy", "power (W)", "vs static", "weighted delay (s)", "SLA misses", "worst delay/bound", "solves/holds/fallbacks")
	staticPower := map[string]float64{}
	for _, r := range rows {
		if r.strategy == "static" {
			staticPower[r.scenario] = r.power
		}
	}
	for _, r := range rows {
		vs := "-"
		if sp, ok := staticPower[r.scenario]; ok && sp > 0 {
			vs = fmt.Sprintf("%+.1f%%", 100*(r.power-sp)/sp)
		}
		counters := "-"
		if r.model {
			counters = fmt.Sprintf("%d/%d/%d", r.stats.Solves, r.stats.Holds, r.stats.Fallbacks)
		}
		t.AddRow(r.scenario, r.strategy, r.power, vs, r.weighted, r.misses, r.worstFrac, counters)
	}
	return []*Table{t}, nil
}

// e23Scenario is one transient workload: its profiles and the peak factor
// the static plan provisions for.
type e23Scenario struct {
	name     string
	profiles []sim.Profile
	peak     float64
}

func e23Scenarios(base *cluster.Cluster, horizon float64) ([]e23Scenario, error) {
	ramp, err := workload.DiurnalProfiles(base, 0.45, horizon/4)
	if err != nil {
		return nil, err
	}
	flash, err := workload.FlashCrowdProfiles(base, 1.9, 0.45*horizon, 0.15*horizon)
	if err != nil {
		return nil, err
	}
	stairs, err := workload.StaircaseProfiles(base, []float64{0.55, 1.0, 1.4, 0.8}, horizon/2)
	if err != nil {
		return nil, err
	}
	return []e23Scenario{
		{"diurnal ramp", ramp, workload.PeakFactor(base, ramp)},
		{"flash crowd", flash, workload.PeakFactor(base, flash)},
		{"staircase", stairs, workload.PeakFactor(base, stairs)},
	}, nil
}

// e23ControlPeriod is the control epoch and the window width, in simulated
// seconds. It is fixed in absolute time, not tied to the horizon: service
// times do not scale with the run, so a longer epoch only gives the backlog
// built while the controller lags a transient longer to grow. At 1500 s (a
// full-fidelity horizon's fortieth) the model controller missed an SLA on
// every scenario.
const e23ControlPeriod = 200.0

func e23Rows(cfg Config) ([]*e23Row, error) {
	horizon, _ := cfg.simScale()
	horizon *= 2 // cover several diurnal periods / the whole flash-crowd arc
	base := workload.Enterprise3Tier(1)
	slaBounds := make([]float64, len(base.Classes))
	for k, cl := range base.Classes {
		slaBounds[k] = cl.SLA.MaxMeanDelay
	}

	scenarios, err := e23Scenarios(base, horizon)
	if err != nil {
		return nil, err
	}
	var rows []*e23Row
	for _, sc := range scenarios {
		// The static baseline: C3b provisioned for the scenario's peak.
		peakCluster := workload.ScaleArrivals(base, sc.peak)
		sol, err := core.MinimizeEnergyPerClass(peakCluster, core.EnergyOptions{MaxClassDelay: slaBounds})
		if err != nil {
			return nil, fmt.Errorf("E23 %s: static peak solve: %w", sc.name, err)
		}
		staticCluster := base.Clone()
		if err := staticCluster.SetSpeeds(sol.Cluster.Speeds()); err != nil {
			return nil, err
		}

		// All three strategies run the identical workload: one replication
		// (the plan controller's contract), same seed, same profiles.
		opts := sim.Options{
			Horizon: horizon, Replications: 1, Seed: cfg.Seed + 23,
			Profiles: sc.profiles,
		}

		addRun := func(strategy string, o sim.Options, ctl *control.Controller) error {
			res, err := sim.Run(staticCluster, o)
			if err != nil {
				return fmt.Errorf("E23 %s/%s: %w", sc.name, strategy, err)
			}
			row := &e23Row{scenario: sc.name, strategy: strategy,
				power: res.TotalPower.Mean, weighted: res.WeightedDelay.Mean}
			for k, bound := range slaBounds {
				if !(bound > 0) {
					continue
				}
				frac := res.Delay[k].Mean / bound
				if frac > row.worstFrac {
					row.worstFrac = frac
				}
				if frac > 1 {
					row.misses++
				}
			}
			if ctl != nil {
				row.stats, row.model = ctl.Stats(), true
			}
			rows = append(rows, row)
			return nil
		}

		if err := addRun("static", opts, nil); err != nil {
			return nil, err
		}

		oReactive := opts
		oReactive.Controller = sim.UtilizationPolicy{Target: 0.7}
		oReactive.ControlPeriod = e23ControlPeriod
		if err := addRun("reactive", oReactive, nil); err != nil {
			return nil, err
		}

		// Margin 0.35: C3b places the binding delays AT the SLA bounds, so
		// the plan needs enough rate headroom to absorb estimate lag on the
		// rising edge of each scenario — at 0.15 the tightest class grazes
		// its bound during ramps.
		ctl, err := control.New(base, control.Config{
			Objective: control.EnergySLA, Smoothing: 0.7, Margin: 0.35,
		})
		if err != nil {
			return nil, fmt.Errorf("E23 %s: controller: %w", sc.name, err)
		}
		win, err := window.NewSet(window.Config{Width: e23ControlPeriod, Buckets: 8}, len(base.Classes), len(base.Tiers))
		if err != nil {
			return nil, err
		}
		oModel := opts
		oModel.PlanController = ctl
		oModel.ControlPeriod = e23ControlPeriod
		oModel.Windows = win
		if err := addRun("model", oModel, ctl); err != nil {
			return nil, err
		}
	}
	// The experiment's headline claim, surfaced as an error if a future
	// change regresses it: on at least one scenario the model controller
	// must beat the static plan on energy at equal-or-better SLA misses.
	if !e23ModelWins(rows) {
		return rows, fmt.Errorf("E23: model controller beat the static plan on no scenario")
	}
	return rows, nil
}

// e23ModelWins reports whether at least one scenario has the model strategy
// strictly below the static plan's power at equal-or-fewer SLA misses.
func e23ModelWins(rows []*e23Row) bool {
	byScenario := map[string]map[string]*e23Row{}
	for _, r := range rows {
		if byScenario[r.scenario] == nil {
			byScenario[r.scenario] = map[string]*e23Row{}
		}
		byScenario[r.scenario][r.strategy] = r
	}
	for _, m := range byScenario {
		st, md := m["static"], m["model"]
		if st != nil && md != nil && md.power < st.power && md.misses <= st.misses {
			return true
		}
	}
	return false
}
