// Command clusterq runs the paper-reproduction experiment suite: every
// reconstructed table and figure of the evaluation (see DESIGN.md), printed
// as plain-text tables and optionally exported as CSV.
//
// Usage:
//
//	clusterq -list                 # show the experiment index
//	clusterq -run E1               # run one experiment
//	clusterq -run all              # run the full suite
//	clusterq -run E5 -quick        # reduced fidelity (seconds, not minutes)
//	clusterq -run all -csv out/    # also write one CSV per table
//	clusterq -run all -progress    # experiment heartbeat on stderr
//	clusterq -run all -metrics-out m.prom   # per-experiment wall-time metrics
//	clusterq -run all -http :8080  # live /metrics and /debug/pprof during the suite
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clusterq/internal/experiments"
	"clusterq/internal/obs"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		run        = flag.String("run", "", "experiment id to run (e.g. E1), or 'all'")
		quick      = flag.Bool("quick", false, "reduced simulation fidelity for fast runs")
		csvDir     = flag.String("csv", "", "directory to write per-table CSV files into")
		seed       = flag.Uint64("seed", 0, "seed offset for all simulations")
		parallel   = flag.Bool("parallel", false, "run independent experiments concurrently (wall-time figures in E9/E17 will be inflated)")
		workers    = flag.Int("sweep-workers", 0, "max concurrent sweep points within one experiment (0 = one per CPU, 1 = serial); results are identical at every setting")
		progress   = flag.Bool("progress", false, "print a periodic experiment-progress heartbeat to stderr")
		metricsOut = flag.String("metrics-out", "", "write per-experiment wall-time metrics to this file (.prom/.txt for Prometheus text, else JSON)")
		httpAddr   = flag.String("http", "", "serve /metrics, /metrics.json and /debug/pprof on this address while the suite runs")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	if *run == "" {
		flag.Usage()
		os.Exit(2)
	}

	var toRun []experiments.Experiment
	if strings.EqualFold(*run, "all") {
		toRun = experiments.All()
	} else {
		e, err := experiments.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		toRun = append(toRun, e)
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *workers}

	reg := obs.NewRegistry()
	if *httpAddr != "" {
		// Live exposition: per-experiment wall-time gauges appear as they
		// complete, and /debug/pprof profiles long suite runs in place.
		addr, stop, err := obs.ListenAndServe(*httpAddr, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "clusterq: serving /metrics and /debug/pprof on http://%s\n", addr)
	}
	var completed atomic.Int64
	start := time.Now()
	if *progress {
		ticker := time.NewTicker(5 * time.Second)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				fmt.Fprintf(os.Stderr, "clusterq: progress %d/%d experiments (elapsed %s)\n",
					completed.Load(), len(toRun), time.Since(start).Round(time.Second))
			}
		}()
	}

	// Experiments are independent; with -parallel they run concurrently
	// and print in index order once all inputs are ready.
	type outcome struct {
		tables  []*experiments.Table
		err     error
		elapsed time.Duration
	}
	results := make([]outcome, len(toRun))
	runOne := func(i int, e experiments.Experiment) {
		t0 := time.Now()
		t, err := e.Run(cfg)
		results[i] = outcome{tables: t, err: err, elapsed: time.Since(t0)}
		n := completed.Add(1)
		if *progress {
			fmt.Fprintf(os.Stderr, "clusterq: %s done in %s (%d/%d)\n",
				e.ID, results[i].elapsed.Round(time.Millisecond), n, len(toRun))
		}
	}
	if *parallel {
		var wg sync.WaitGroup
		for i, e := range toRun {
			wg.Add(1)
			go func(i int, e experiments.Experiment) {
				defer wg.Done()
				runOne(i, e)
			}(i, e)
		}
		wg.Wait()
	} else {
		for i, e := range toRun {
			runOne(i, e)
		}
	}

	var tables int64
	for i, e := range toRun {
		if results[i].err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, results[i].err)
			os.Exit(1)
		}
		reg.Gauge("clusterq_"+strings.ToLower(e.ID)+"_seconds",
			"wall time of "+e.ID).Set(results[i].elapsed.Seconds())
		tables += int64(len(results[i].tables))
		if err := experiments.WriteSection(os.Stdout, e, results[i].tables); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *csvDir != "" {
			for ti, t := range results[i].tables {
				if err := writeCSV(*csvDir, e.ID, ti, t); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
	}

	if *metricsOut != "" {
		reg.Counter("clusterq_experiments_total", "experiments completed").Add(completed.Load())
		reg.Counter("clusterq_tables_total", "tables produced").Add(tables)
		reg.Gauge("clusterq_wall_seconds", "total suite wall time").Set(time.Since(start).Seconds())
		if err := obs.WriteMetricsFile(*metricsOut, reg, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func writeCSV(dir, id string, idx int, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s_%d.csv", strings.ToLower(id), idx)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	// Safety net for early error returns; the success path closes (and
	// checks) explicitly below.
	defer func() { _ = f.Close() }()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
