package clusterq

// The benchmark harness: one testing.B benchmark per reconstructed table and
// figure (E1–E23, see DESIGN.md), each running the corresponding experiment
// in quick mode so `go test -bench=.` regenerates every evaluation artifact's
// code path and reports its cost. Micro-benchmarks for the three hot layers
// (analytic evaluation, simulation, optimization) follow.

import (
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/experiments"
	"clusterq/internal/sim"
)

func benchExperiment(b *testing.B, id string) {
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Table I: per-class delay validation (analytic vs simulation).
func BenchmarkE1DelayValidation(b *testing.B) { benchExperiment(b, "E1") }

// Table II: power and per-request energy validation.
func BenchmarkE2EnergyValidation(b *testing.B) { benchExperiment(b, "E2") }

// Fig. 1: per-class delay vs load (priority separation).
func BenchmarkE3DelayVsLoad(b *testing.B) { benchExperiment(b, "E3") }

// Fig. 2: power and energy-per-job vs load at fixed speeds.
func BenchmarkE4EnergyVsLoad(b *testing.B) { benchExperiment(b, "E4") }

// Fig. 3: C2 frontier — minimized delay vs energy budget.
func BenchmarkE5DelayOpt(b *testing.B) { benchExperiment(b, "E5") }

// Fig. 4: C3a frontier — minimized power vs aggregate delay bound.
func BenchmarkE6EnergyOptAggregate(b *testing.B) { benchExperiment(b, "E6") }

// Fig. 5: C3b — minimized power under per-class bounds.
func BenchmarkE7EnergyOptPerClass(b *testing.B) { benchExperiment(b, "E7") }

// Table III: C4 cost minimization vs sizing baselines.
func BenchmarkE8CostOpt(b *testing.B) { benchExperiment(b, "E8") }

// Fig. 6: solver efficiency vs problem size.
func BenchmarkE9Scalability(b *testing.B) { benchExperiment(b, "E9") }

// Fig. 7: scheduling-discipline ablation.
func BenchmarkE10Disciplines(b *testing.B) { benchExperiment(b, "E10") }

// Fig. 8: DVFS exponent sensitivity ablation.
func BenchmarkE11GammaSensitivity(b *testing.B) { benchExperiment(b, "E11") }

// Extension: dynamic DVFS control under diurnal load.
func BenchmarkE12DynamicControl(b *testing.B) { benchExperiment(b, "E12") }

// Extension: C4 provisioning staircase vs traffic scale.
func BenchmarkE13CostStaircase(b *testing.B) { benchExperiment(b, "E13") }

// Extension: optimal traffic splitting across heterogeneous pools.
func BenchmarkE14OptimalSplit(b *testing.B) { benchExperiment(b, "E14") }

// Extension: sleep states vs always-on.
func BenchmarkE15SleepStates(b *testing.B) { benchExperiment(b, "E15") }

// Extension: percentile-bound energy minimization.
func BenchmarkE16TailBounds(b *testing.B) { benchExperiment(b, "E16") }

// Ablation: dual decomposition vs augmented Lagrangian.
func BenchmarkE17Solvers(b *testing.B) { benchExperiment(b, "E17") }

// Extension: retry storms under probabilistic routing.
func BenchmarkE18RetryStorms(b *testing.B) { benchExperiment(b, "E18") }

// Extension: total cost of ownership vs energy price.
func BenchmarkE19TCO(b *testing.B) { benchExperiment(b, "E19") }

// Extension: fork-join synchronization penalty.
func BenchmarkE20ForkJoin(b *testing.B) { benchExperiment(b, "E20") }

// Extension: failure injection — breakdowns, deadlines, retries, shedding.
func BenchmarkE21Failures(b *testing.B) { benchExperiment(b, "E21") }

// Extension: shared-clock heterogeneous fleet orchestration.
func BenchmarkE22Fleet(b *testing.B) { benchExperiment(b, "E22") }

// Extension: transient autoscaling — static plan vs reactive vs
// model-driven controller on time-varying arrivals. The costliest
// experiment benchmark: nine transient runs (three scenarios × three
// controllers), each with per-epoch C3b re-solves for the model arm.
// Reference cost lives in results/BENCH_control.json.
func BenchmarkE23Autoscaler(b *testing.B) { benchExperiment(b, "E23") }

// BenchmarkMinimizeEnergyPerClass measures the decomposed C3b solve at the
// canonical scenario's SLA bounds, from cold multipliers — the per-epoch
// re-solve of the online controller.
func BenchmarkMinimizeEnergyPerClass(b *testing.B) {
	c := Enterprise3Tier(1)
	bounds := make([]float64, len(c.Classes))
	for k, cl := range c.Classes {
		bounds[k] = cl.SLA.MaxMeanDelay
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeEnergyPerClass(c, EnergyOptions{MaxClassDelay: bounds}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks -------------------------------------------------------

// BenchmarkEvaluate measures one analytical evaluation of the canonical
// 3-tier scenario — the inner loop of every optimizer.
func BenchmarkEvaluate(b *testing.B) {
	c := Enterprise3Tier(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Evaluate(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate1k measures simulating 1000 time units of the canonical
// scenario (single replication, ~4k requests).
func BenchmarkSimulate1k(b *testing.B) {
	c := Enterprise3Tier(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(c, sim.Options{Horizon: 1000, Warmup: 100, Replications: 1, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimizeEnergy measures one C3a solve by dual decomposition (the
// per-point cost of frontier sweeps).
func BenchmarkMinimizeEnergy(b *testing.B) {
	c := Enterprise3Tier(1)
	m, err := Evaluate(c)
	if err != nil {
		b.Fatal(err)
	}
	bound := m.WeightedDelay * 1.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeEnergy(c, EnergyOptions{MaxWeightedDelay: bound}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimizeCost measures one full C4 sizing run (greedy growth +
// polish, no speed tuning).
func BenchmarkMinimizeCost(b *testing.B) {
	c := ScaleArrivals(Enterprise3Tier(1), 2.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeCost(c, CostOptions{SkipSpeedTuning: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimizeCostTuned measures one full C4 run including the speed
// tuning stage (C3b at the sized server counts, by dual decomposition).
func BenchmarkMinimizeCostTuned(b *testing.B) {
	c := ScaleArrivals(Enterprise3Tier(1), 2.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeCost(c, CostOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayQuantile measures the hypoexponential tail evaluation used
// by percentile SLAs.
func BenchmarkDelayQuantile(b *testing.B) {
	c := Enterprise3Tier(1)
	m, err := Evaluate(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DelayQuantile(c, m, 2, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}
