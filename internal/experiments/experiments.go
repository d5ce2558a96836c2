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
type Experiment interface {
	// ID is the experiment key, e.g. "E1".
	ID() string
	// Title describes the paper artifact it reconstructs.
	Title() string
	// Run executes the experiment and returns its tables.
	Run(cfg Config) ([]*Table, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		E1{}, E2{}, E3{}, E4{}, E5{}, E6{}, E7{}, E8{}, E9{}, E10{}, E11{},
		E12{}, E13{}, E14{}, E15{}, E16{}, E17{}, E18{}, E19{}, E20{}, E21{},
		E22{}, E23{},
	}
}

// ByID returns the experiment with the given ID (case-sensitive), or an
// error listing the valid IDs.
func ByID(id string) (Experiment, error) {
	var ids []string
	for _, e := range All() {
		if e.ID() == id {
			return e, nil
		}
		ids = append(ids, e.ID())
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// RunAndPrint runs an experiment and renders all its tables to w.
func RunAndPrint(e Experiment, cfg Config, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n\n", e.ID(), e.Title()); err != nil {
		return err
	}
	tables, err := e.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID(), err)
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
