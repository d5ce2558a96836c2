package experiments

import (
	"fmt"

	"clusterq/internal/cluster"
	"clusterq/internal/obs/trace"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// e21Availabilities is the sweep axis: steady-state server availability from
// always-up down to heavily degraded.
var e21Availabilities = []float64{1, 0.98, 0.95, 0.9, 0.8}

// e21MTBF is the per-server mean time between failures used at every point;
// the MTTR is derived from the target availability (MTTR = MTBF·(1−A)/A).
// It is deliberately short against the ~0.2–0.5 s service times so repairs
// are fast-switching — the regime where the analytic availability-weighted
// capacity approximation is accurate; longer outages at the same A push the
// simulated delays above the analytic line (see DESIGN.md "Failure model").
const e21MTBF = 10.0

// e21Load is the bottleneck utilization of the nominal (failure-free)
// cluster. Low enough that the A=0.8 point stays stable at degraded capacity.
const e21Load = 0.55

// e21Cluster builds the simulation cluster for one sweep point. The cluster
// itself stays nominal — the simulator degrades through explicit
// breakdown/repair injection (sim.Options.Failures), not through the analytic
// Tier.Availability knob, so the two models stay independent.
func e21Cluster() *cluster.Cluster {
	return workload.CapacityFraction(workload.Enterprise3Tier(1), e21Load)
}

// e21Failures returns the per-tier failure configs realizing availability a,
// or nil for the always-up point.
func e21Failures(c *cluster.Cluster, a float64) []*sim.FailureConfig {
	if a >= 1 {
		return nil
	}
	fcs := make([]*sim.FailureConfig, len(c.Tiers))
	for j := range fcs {
		fcs[j] = &sim.FailureConfig{MTBF: e21MTBF, MTTR: e21MTBF * (1 - a) / a}
	}
	return fcs
}

type e21Point struct {
	model    *cluster.Metrics // analytic, availability-degraded
	plain    *sim.Result      // breakdowns only
	degraded *sim.Result      // breakdowns + deadlines + shedding
}

func runE21Point(cfg Config, a float64, seed uint64) (e21Point, error) {
	horizon, reps := cfg.simScale()

	// Analytic side: the availability-weighted capacity model.
	ac := e21Cluster()
	if a < 1 {
		for _, t := range ac.Tiers {
			t.Availability = a
		}
	}
	m, err := cluster.Evaluate(ac)
	if err != nil {
		return e21Point{}, err
	}

	// Simulated side, run 1: explicit breakdown/repair only — every arrival
	// eventually completes, so delay and power compare one-to-one.
	c := e21Cluster()
	plain, err := sim.Run(c, sim.Options{
		Horizon: horizon, Replications: reps, Seed: seed,
		Failures: e21Failures(c, a),
	})
	if err != nil {
		return e21Point{}, err
	}

	// Run 2: the graceful-degradation pipeline on top. Deadlines sit a few
	// multiples above each class's nominal delay; bronze has no retry budget
	// and is first in line for shedding.
	degraded, err := sim.Run(c, sim.Options{
		Horizon: horizon, Replications: reps, Seed: seed + 1,
		Failures: e21Failures(c, a),
		Deadlines: []*sim.DeadlineConfig{
			{Deadline: 8, MaxRetries: 2, RetryBackoff: 0.5},
			{Deadline: 10, MaxRetries: 1, RetryBackoff: 1},
			{Deadline: 12},
		},
		Shedding: &sim.SheddingConfig{Threshold: 0.92, Period: 25},
	})
	if err != nil {
		return e21Point{}, err
	}
	return e21Point{model: m, plain: plain, degraded: degraded}, nil
}

// e21RecorderAvailability is the sweep point the flight-recorder breakdown
// table zooms into: degraded enough that preemption-by-breakdown and the
// retry machinery contribute visibly to sojourns.
const e21RecorderAvailability = 0.9

// runE21Recorder reruns the graceful-degradation scenario at one availability
// with the flight recorder attached (single replication, the recorder
// contract) and returns the per-class span breakdowns.
func runE21Recorder(cfg Config, a float64, seed uint64) (*trace.Recorder, error) {
	horizon, _ := cfg.simScale()
	c := e21Cluster()
	rec := trace.NewRecorder(1 << 17)
	_, err := sim.Run(c, sim.Options{
		Horizon: horizon, Replications: 1, Seed: seed,
		Recorder: rec,
		Failures: e21Failures(c, a),
		Deadlines: []*sim.DeadlineConfig{
			{Deadline: 8, MaxRetries: 2, RetryBackoff: 0.5},
			{Deadline: 10, MaxRetries: 1, RetryBackoff: 1},
			{Deadline: 12},
		},
		Shedding: &sim.SheddingConfig{Threshold: 0.92, Period: 25},
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// E21 is the failure extension: server breakdown/repair injection swept over
// availability, validated against the analytic availability-degraded model
// (Tier.Availability), then re-run with the full graceful-degradation
// pipeline — per-class deadlines, retry-with-backoff, and priority-aware
// admission control — to measure what each class actually gets when capacity
// keeps dropping out: goodput, timeout/retry/abandon/shed counts, and mean
// delay against the SLA.
func runE21(cfg Config) ([]*Table, error) {
	base := e21Cluster()
	points, err := sweep(cfg, len(e21Availabilities), func(i int) (e21Point, error) {
		return runE21Point(cfg, e21Availabilities[i], cfg.Seed+21)
	})
	if err != nil {
		return nil, err
	}

	tv := NewTable(
		fmt.Sprintf("breakdowns vs availability-degraded model (load %.0f%%, MTBF %g s)", 100*e21Load, e21MTBF),
		"avail", "class", "delay model (s)", "delay sim (s)", "rel. error",
		"power model (W)", "power sim (W)")
	tg := NewTable("graceful degradation: deadlines + retries + shedding",
		"avail", "class", "goodput (req/s)", "served frac",
		"timeouts", "retries", "abandoned", "shed", "delay sim (s)", "mean SLA")
	for i, a := range e21Availabilities {
		p := points[i]
		for k, cl := range base.Classes {
			est := p.plain.Delay[k]
			tv.AddRow(a, cl.Name, p.model.Delay[k], SimEstimate(est),
				Pct(est.RelErr(p.model.Delay[k])),
				p.model.TotalPower, SimEstimate(p.plain.TotalPower))

			d := p.degraded
			served := d.Goodput[k].Mean / cl.Lambda
			slaCell := "-"
			if cl.SLA.HasMeanBound() {
				if d.Delay[k].Mean <= cl.SLA.MaxMeanDelay {
					slaCell = "ok"
				} else {
					slaCell = "violated"
				}
			}
			tg.AddRow(a, cl.Name, SimEstimate(d.Goodput[k]), Pct(served),
				d.Timeouts[k], d.Retries[k], d.Abandoned[k], d.Shed[k],
				SimEstimate(d.Delay[k]), slaCell)
		}
	}

	// The flight-recorder zoom: where each class's sojourn actually goes
	// (queueing vs service vs breakdown-preempted vs retry backoff) at one
	// degraded point — the per-component story the aggregate delay column
	// cannot tell.
	rec, err := runE21Recorder(cfg, e21RecorderAvailability, cfg.Seed+210)
	if err != nil {
		return nil, err
	}
	tb := NewTable(
		fmt.Sprintf("flight recorder: mean sojourn breakdown at availability %.2g (1 replication)",
			e21RecorderAvailability),
		"class", "spans", "abandoned", "queue (s)", "service (s)",
		"preempted (s)", "backoff (s)", "sojourn (s)")
	for k, cl := range base.Classes {
		b := rec.Breakdown(k)
		tb.AddRow(cl.Name, b.Spans(), b.Abandoned,
			b.MeanQueue(), b.MeanService(), b.MeanPreempted(), b.MeanBackoff(),
			b.MeanSojourn())
	}
	return []*Table{tv, tg, tb}, nil
}

// MaxFailureValidationError runs E21's breakdown-only sweep and returns the
// worst relative delay error between the availability-degraded analytic model
// and the failure-injected simulation over the points with availability ≥
// minAvail — the quantitative accuracy handle the tests pin, mirroring
// MaxValidationError for the failure-free model.
func MaxFailureValidationError(cfg Config, minAvail float64) (float64, error) {
	points, err := sweep(cfg, len(e21Availabilities), func(i int) (e21Point, error) {
		return runE21Point(cfg, e21Availabilities[i], cfg.Seed+21)
	})
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for i, a := range e21Availabilities {
		if a < minAvail {
			continue
		}
		p := points[i]
		for k := range p.model.Delay {
			if e := p.plain.Delay[k].RelErr(p.model.Delay[k]); e > worst {
				worst = e
			}
		}
	}
	return worst, nil
}
