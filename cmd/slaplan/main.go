// Command slaplan is the capacity-planning tool built on the paper's C4
// algorithm: given a JSON cluster description with per-class SLAs, it finds
// the cheapest server allocation (and DVFS speeds) that guarantees every
// class's SLA, and compares it with the uniform and proportional sizing
// baselines.
//
// Usage:
//
//	slaplan -config cluster.json [-baselines] [-max-servers 64]
//	        [-availability 0.95]     # size so SLAs hold at this availability
//	        [-progress]              # phase/timing heartbeat on stderr
//	        [-metrics-out m.json]    # solver metrics (.prom for Prometheus text)
//	        [-http :8080]            # live /metrics and /debug/pprof while solving
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"clusterq/internal/cluster"
	"clusterq/internal/core"
	"clusterq/internal/obs"
)

func main() {
	var (
		path       = flag.String("config", "", "JSON cluster config (required)")
		baselines  = flag.Bool("baselines", false, "also size with the uniform and proportional baselines")
		maxServers = flag.Int("max-servers", 64, "server cap per tier")
		avail      = flag.Float64("availability", 0, "plan at this server availability in (0,1] so SLAs survive breakdowns (0 = nominal capacity)")
		progress   = flag.Bool("progress", false, "print solver phase progress to stderr")
		metricsOut = flag.String("metrics-out", "", "write solver metrics to this file (.prom/.txt for Prometheus text, else JSON)")
		httpAddr   = flag.String("http", "", "serve /metrics, /metrics.json and /debug/pprof on this address while solving")
	)
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		fatal(err)
	}
	c, err := cluster.ParseConfig(data)
	if err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry()
	if *httpAddr != "" {
		// Phase-timing gauges and solver diagnostics go live as each phase
		// finishes; /debug/pprof profiles slow solves in place.
		addr, stop, err := obs.ListenAndServe(*httpAddr, reg, nil)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "slaplan: serving /metrics and /debug/pprof on http://%s\n", addr)
	}
	phase := func(name string) func() {
		start := time.Now()
		if *progress {
			fmt.Fprintf(os.Stderr, "slaplan: %s...\n", name)
		}
		return func() {
			d := time.Since(start)
			reg.Gauge("slaplan_"+name+"_seconds", "wall time of the "+name+" phase").Set(d.Seconds())
			if *progress {
				fmt.Fprintf(os.Stderr, "slaplan: %s done in %s\n", name, d.Round(time.Millisecond))
			}
		}
	}

	finish := phase("mincost")
	sol, err := core.MinimizeCost(c, core.CostOptions{MaxServersPerTier: *maxServers, Availability: *avail})
	finish()
	if err != nil {
		fatal(err)
	}
	if *avail != 0 && *avail < 1 {
		fmt.Printf("== min-cost allocation (C4, planned at availability %.4g) ==\n", *avail)
	} else {
		fmt.Println("== min-cost allocation (C4) ==")
	}
	printAllocation(sol)
	recordSolution(reg, "mincost", sol)

	if *baselines {
		finish = phase("uniform_baseline")
		b, err := core.UniformCostBaseline(c, *maxServers)
		finish()
		fmt.Println("\n== uniform baseline ==")
		if err != nil {
			fmt.Println("infeasible:", err)
		} else {
			printAllocation(b)
			recordSolution(reg, "uniform", b)
		}
		finish = phase("proportional_baseline")
		b, err = core.ProportionalCostBaseline(c, *maxServers)
		finish()
		fmt.Println("\n== proportional baseline ==")
		if err != nil {
			fmt.Println("infeasible:", err)
		} else {
			printAllocation(b)
			recordSolution(reg, "proportional", b)
		}
	}

	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(*metricsOut, reg, nil); err != nil {
			fatal(err)
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "slaplan: metrics written to %s\n", *metricsOut)
		}
	}
}

// recordSolution publishes one allocation's outcome and solver diagnostics.
func recordSolution(reg *obs.Registry, name string, sol *core.Solution) {
	reg.Gauge("slaplan_"+name+"_cost", "total provisioning cost per unit time").Set(sol.Objective)
	reg.Gauge("slaplan_"+name+"_power_watts", "average power of the allocation").Set(sol.Metrics.TotalPower)
	reg.Gauge("slaplan_"+name+"_solver_evals", "objective evaluations spent").Set(float64(sol.Result.Evals))
	reg.Gauge("slaplan_"+name+"_solver_iters", "outer solver iterations").Set(float64(sol.Result.Iters))
}

func printAllocation(sol *core.Solution) {
	fmt.Printf("total cost: %.4g per unit time\n", sol.Objective)
	fmt.Printf("average power: %.4g W\n", sol.Metrics.TotalPower)
	for j, t := range sol.Cluster.Tiers {
		fmt.Printf("  tier %-8s servers=%-3d speed=%.3g (utilization %.1f%%)\n",
			t.Name, t.Servers, t.Speed, 100*sol.Metrics.Tiers[j].Utilization)
	}
	reports, err := cluster.CheckSLAs(sol.Cluster, sol.Metrics)
	if err != nil {
		fatal(err)
	}
	for _, r := range reports {
		status := "OK"
		if !r.Satisfied() {
			status = "VIOLATED"
		}
		if r.MeanBound > 0 {
			fmt.Printf("  class %-8s mean delay %.3gs (bound %.3gs) %s\n",
				r.Class, r.MeanDelay, r.MeanBound, status)
		}
		if r.TailBound > 0 {
			fmt.Printf("  class %-8s p%.0f delay %.3gs (bound %.3gs) %s\n",
				r.Class, 100*r.TailPercentile, r.TailDelay, r.TailBound, status)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slaplan:", err)
	os.Exit(1)
}
