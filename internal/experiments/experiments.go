// Package experiments reproduces the paper's evaluation: one experiment per
// reconstructed table/figure (see DESIGN.md for the index), each emitting
// plain-text tables and CSV. Experiments come in two fidelities: full (the
// numbers quoted in EXPERIMENTS.md) and quick (shorter simulations, used by
// tests and benchmarks to exercise identical code paths fast).
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Config controls an experiment run.
type Config struct {
	// Quick selects reduced simulation horizons/replications so the whole
	// suite runs in seconds (tests, benches). Full mode is the default.
	Quick bool
	// Seed offsets all simulation seeds for reproducibility studies.
	Seed uint64
	// Workers bounds how many sweep points run concurrently within one
	// experiment (see sweep): 0 selects one worker per CPU, 1 runs the
	// points serially. The output is identical at every setting — sweep
	// seeds are derived per point, so parallelism only changes wall time.
	Workers int
}

// simScale returns (horizon, replications) for the fidelity level.
func (c Config) simScale() (float64, int) {
	if c.Quick {
		return 4000, 2
	}
	return 30000, 5
}

// Experiment is one reconstructed table or figure.
type Experiment struct {
	// ID is the experiment key, e.g. "E1".
	ID string
	// Title describes the paper artifact it reconstructs.
	Title string
	// Run executes the experiment and returns its tables.
	Run func(cfg Config) ([]*Table, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Table I — model validation: per-class mean end-to-end delay, analytic vs simulation", runE1},
		{"E2", "Table II — model validation: average power and per-request energy, analytic vs simulation", runE2},
		{"E3", "Fig. 1 — per-class mean delay vs load (priority separation)", runE3},
		{"E4", "Fig. 2 — average power and energy-per-job vs load at fixed speeds", runE4},
		{"E5", "Fig. 3 — minimized average delay vs energy budget (C2), optimizer vs uniform baseline", runE5},
		{"E6", "Fig. 4 — minimized average power vs aggregate delay bound (C3a), optimizer vs uniform baseline", runE6},
		{"E7", "Fig. 5 — minimized power vs per-class delay bounds (C3b), binding classes", runE7},
		{"E8", "Table III — min-cost allocation under priority SLAs (C4) vs sizing baselines, sim-verified", runE8},
		{"E9", "Fig. 6 — solver efficiency vs problem size (tiers × classes)", runE9},
		{"E10", "Fig. 7 — scheduling-discipline ablation: FCFS vs non-preemptive vs preemptive-resume", runE10},
		{"E11", "Fig. 8 — sensitivity of the optimal operating point to the DVFS exponent γ", runE11},
		{"E12", "Extension — dynamic DVFS control under diurnal load: static-mean vs static-peak vs reactive", runE12},
		{"E13", "Extension — minimum provisioning cost vs traffic scale (C4 staircase)", runE13},
		{"E14", "Extension — optimal traffic splitting across heterogeneous pools vs heuristics", runE14},
		{"E15", "Extension — sleep states (instant-off + setup) vs always-on: power/delay trade-off", runE15},
		{"E16", "Extension — C3 with percentile (tail) bounds: power premium over mean bounds, sim-verified", runE16},
		{"E17", "Ablation — Lagrangian dual decomposition vs general augmented Lagrangian (C2, C3a, C3b, C4 tuning, C3 tail)", runE17},
		{"E18", "Extension — retry storms under probabilistic routing: delay and energy vs retry probability", runE18},
		{"E19", "Extension — C4 with priced energy: fleet size and speeds vs electricity price", runE19},
		{"E20", "Extension — fork-join synchronization penalty R(k)/R(1), Nelson–Tantawi vs simulation", runE20},
		{"E21", "Extension — failure injection: delay, power and per-class goodput vs server availability", runE21},
		{"E22", "Extension — shared-clock fleet: heterogeneous cluster generations under one orchestrator", runE22},
		{"E23", "Extension — closing the loop: model-driven autoscaler vs static plan vs reactive DVFS under transient load", runE23},
	}
}

// ByID returns the experiment with the given ID (case-sensitive), or an
// error listing the valid IDs.
func ByID(id string) (Experiment, error) {
	var ids []string
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// RunAndPrint runs an experiment and renders all its tables to w.
func RunAndPrint(e Experiment, cfg Config, w io.Writer) error {
	tables, err := e.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	return WriteSection(w, e, tables)
}

// WriteSection renders an experiment's tables to w as one section of the
// suite's report: a "=== ID: title ===" header, then each table followed by
// a blank line.
func WriteSection(w io.Writer, e Experiment, tables []*Table) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n\n", e.ID, e.Title); err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.WriteASCII(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
