// Command simrun simulates a JSON-described cluster and reports the measured
// per-class delays, power and energy side by side with the analytical model
// (the paper's validation methodology, on your own configuration).
//
// Usage:
//
//	simrun -config cluster.json [-horizon 30000] [-reps 5] [-seed 0] [-q 0.95]
//	       [-swing 0.5 -period 5000]      # diurnal sinusoidal load
//	       [-reactive 0.7 -epoch 20]      # runtime DVFS controller
//	       [-controller model -epoch 100] # operating strategy: static|reactive|model
//	                                      # (model = online autoscaler re-solving the energy/SLA
//	                                      # plan each epoch from window estimates; 1 replication)
//	       [-sleep 2.0 -sleep-watts 20]   # instant-off sleep on every tier
//	       [-mtbf 100 -mttr 5]            # server breakdown/repair on every tier
//	       [-deadline 10 -max-retries 2 -retry-backoff 0.5]  # timeout–retry–abandon, all classes
//	       [-shed-threshold 0.9 -shed-period 25]             # priority-aware admission control
//	       [-fleet 3 -fleet-spread 0.2]   # N cluster replicas under one shared clock
//	       [-sample-period 10]            # probe: sample queues/util/power
//	       [-metrics-out m.json]          # metric exposition (.prom for Prometheus text)
//	       [-timeline-out tl.csv]         # sampled time series as CSV
//	       [-span-out spans.json]         # flight recorder: Chrome trace-event JSON (forces 1 replication)
//	       [-window 500 -window-buckets 16 -window-quantile 0.99]  # sliding-window sensors
//	       [-http :8080]                  # live /metrics, /metrics.json, /trace, /debug/pprof
//	       [-progress]                    # periodic replication heartbeat on stderr
//	       [-cpuprofile cpu.pb.gz -memprofile mem.pb.gz]  # pprof hooks
//
// The dynamic flags desynchronize the run from the stationary analytical
// model on purpose: the analytic columns then show what the static model
// predicts, the simulated columns what the dynamic policies deliver.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"clusterq/internal/cluster"
	"clusterq/internal/control"
	"clusterq/internal/obs"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/queueing"
	"clusterq/internal/sim"
	"clusterq/internal/sim/multi"
	"clusterq/internal/stats"
)

func main() {
	var (
		path    = flag.String("config", "", "JSON cluster config (required)")
		horizon = flag.Float64("horizon", 30000, "simulated seconds per replication")
		reps    = flag.Int("reps", 5, "independent replications")
		seed    = flag.Uint64("seed", 0, "base RNG seed")
		q       = flag.Float64("q", 0.95, "delay quantile to report (0 disables)")

		swing  = flag.Float64("swing", 0, "relative diurnal swing of all arrival rates, in [0,1)")
		period = flag.Float64("period", 0, "diurnal period in simulated seconds (required with -swing)")

		reactive = flag.Float64("reactive", 0, "enable the reactive DVFS controller with this utilization target (0 disables)")
		epoch    = flag.Float64("epoch", 20, "control epoch in simulated seconds, for -reactive and -controller")

		controller = flag.String("controller", "", "operating strategy: static (no runtime control), reactive (utilization-target DVFS, target from -reactive or 0.7), or model (model-driven autoscaler re-solving the energy/SLA plan each epoch against window estimates; forces 1 replication)")

		sleepSetup = flag.Float64("sleep", 0, "enable instant-off sleep on every tier with this mean setup time (0 disables)")
		sleepWatts = flag.Float64("sleep-watts", 0, "per-server power while asleep (with -sleep)")

		mtbf = flag.Float64("mtbf", 0, "enable server breakdowns on every tier with this mean time between failures (0 disables)")
		mttr = flag.Float64("mttr", 0, "mean time to repair a failed server (required with -mtbf)")

		deadline     = flag.Float64("deadline", 0, "per-attempt response-time deadline for every class (0 disables)")
		maxRetries   = flag.Int("max-retries", 0, "retry budget per timed-out request (with -deadline)")
		retryBackoff = flag.Float64("retry-backoff", 0, "mean exponential backoff before the first retry, doubling per attempt (with -deadline)")

		shedThreshold = flag.Float64("shed-threshold", 0, "worst-tier utilization above which low classes are shed (0 disables)")
		shedPeriod    = flag.Float64("shed-period", 25, "admission-control measurement epoch in simulated seconds (with -shed-threshold)")

		tracePath = flag.String("trace", "", "write a CSV event trace to this file (forces 1 replication)")

		fleetN      = flag.Int("fleet", 0, "run this many cluster replicas under one shared clock instead of independent replications (0 disables; dynamic flags apply to every replica)")
		fleetSpread = flag.Float64("fleet-spread", 0, "heterogeneity of the fleet: replica speeds spread evenly across [1-s, 1+s] times the configured speed (with -fleet, in [0,1))")

		samplePeriod = flag.Float64("sample-period", 0, "probe sampling period in simulated seconds (0 disables the probe; -horizon/-sample-period may be at most 1<<20 samples)")
		metricsOut   = flag.String("metrics-out", "", "write metrics to this file (.prom/.txt for Prometheus text, else JSON)")
		timelineOut  = flag.String("timeline-out", "", "write the probe's sampled time series to this CSV file (requires -sample-period)")
		spanOut      = flag.String("span-out", "", "attach the flight recorder and write Chrome trace-event JSON to this file (forces 1 replication; load in Perfetto)")
		winWidth     = flag.Float64("window", 0, "sliding-window width in simulated seconds for the streaming sensors (0 disables)")
		winBuckets   = flag.Int("window-buckets", 0, "buckets per sliding window (0 = default 16)")
		winQuantile  = flag.Float64("window-quantile", 0, "sojourn tail quantile the window sensors track (0 = default 0.99)")
		httpAddr     = flag.String("http", "", "serve /metrics, /metrics.json, /trace and /debug/pprof on this address during and after the run")
		progress     = flag.Bool("progress", false, "print a periodic replication-progress heartbeat to stderr")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile to this file")
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
	m, err := cluster.Evaluate(c)
	if err != nil {
		fatal(err)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		// Profiles are best-effort diagnostics: a failed close must not turn
		// a successful simulation into a failure.
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	// Fleet mode runs N single-replication replicas under one shared clock
	// (internal/sim/multi). The single-run observability surfaces assume one
	// replication of one cluster, so they do not combine with a fleet.
	if *fleetN < 0 {
		fatal(fmt.Errorf("-fleet must be non-negative, got %d", *fleetN))
	}
	if *fleetN > 0 {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-trace", *tracePath != ""},
			{"-span-out", *spanOut != ""},
			{"-timeline-out", *timelineOut != ""},
			{"-metrics-out", *metricsOut != ""},
			{"-sample-period", *samplePeriod != 0},
			{"-window", *winWidth > 0},
			{"-http", *httpAddr != ""},
			{"-progress", *progress},
			{"-controller=model", *controller == "model"},
		} {
			if f.set {
				fatal(fmt.Errorf("%s is a single-run surface; it cannot combine with -fleet", f.name))
			}
		}
		if !(*fleetSpread >= 0 && *fleetSpread < 1) {
			fatal(fmt.Errorf("-fleet-spread %g out of [0,1)", *fleetSpread))
		}
	} else if *fleetSpread != 0 {
		fatal(fmt.Errorf("-fleet-spread requires -fleet"))
	}

	opts := sim.Options{Horizon: *horizon, Replications: *reps, Seed: *seed}
	if *q > 0 && *q < 1 {
		opts.Quantiles = []float64{*q}
	}

	// Observability: a positive sampling period (or any metrics request,
	// including live HTTP exposition and the window sensors, which ride the
	// probe tick) attaches the probe; the registry collects event counters
	// and run gauges for the exposition file and the /metrics endpoints.
	var reg *obs.Registry
	if *samplePeriod < 0 {
		fatal(fmt.Errorf("-sample-period must be positive, got %g", *samplePeriod))
	}
	if *samplePeriod > 0 || *metricsOut != "" || *httpAddr != "" || *winWidth > 0 {
		reg = obs.NewRegistry()
		period := *samplePeriod
		if period <= 0 {
			period = *horizon / 200 // a sane default trajectory resolution
		}
		opts.Probe = &sim.Probe{Period: period, Registry: reg}
	} else if *timelineOut != "" {
		fatal(fmt.Errorf("-timeline-out requires -sample-period"))
	}
	if (*winBuckets != 0 || *winQuantile != 0) && *winWidth <= 0 {
		fatal(fmt.Errorf("-window-buckets/-window-quantile require -window"))
	}
	if *winWidth > 0 {
		w, err := window.NewSet(window.Config{
			Width: *winWidth, Buckets: *winBuckets, Quantile: *winQuantile,
		}, len(c.Classes), len(c.Tiers))
		if err != nil {
			fatal(err)
		}
		// Bound gauges make the live /metrics endpoints show the sensors'
		// current readings; each probe tick republishes them.
		w.Bind(reg)
		opts.Windows = w
	}

	// The flight recorder: -span-out asks for the Chrome trace, and a live
	// /trace endpoint wants one too when the run is single-replication
	// anyway (the recorder contract; see sim.Options.Recorder).
	var rec *trace.Recorder
	if *spanOut != "" || (*httpAddr != "" && *reps == 1 && *tracePath == "") {
		rec = trace.NewRecorder(0)
		opts.Recorder = rec
		if *spanOut != "" && *reps != 1 {
			opts.Replications = 1
			fmt.Printf("recording spans to %s (single replication)\n", *spanOut)
		}
	}

	// Live exposition starts before the run so long simulations can be
	// profiled (/debug/pprof) and watched (/metrics) while they execute.
	if *httpAddr != "" {
		addr, stop, err := obs.ListenAndServe(*httpAddr, reg, rec)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Printf("serving /metrics, /metrics.json, /trace, /debug/pprof on http://%s\n", addr)
	}

	var progressDone atomic.Int64
	if *progress {
		opts.Progress = func(done, total int) { progressDone.Store(int64(done)) }
		start := time.Now()
		ticker := time.NewTicker(2 * time.Second)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				fmt.Fprintf(os.Stderr, "simrun: progress %d/%d replications (elapsed %s)\n",
					progressDone.Load(), *reps, time.Since(start).Round(time.Second))
			}
		}()
	}
	// finishTrace closes the trace file once the run succeeded. sim.Run
	// buffers and flushes internally (and propagates write errors), so the
	// file handle goes straight in; only the close is ours to check.
	finishTrace := func() error { return nil }
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		finishTrace = func() error { return f.Close() }
		opts.Trace = f
		opts.Replications = 1
		fmt.Printf("tracing events to %s (single replication)\n", *tracePath)
	}
	if *swing > 0 {
		if !(*period > 0) {
			fatal(fmt.Errorf("-swing requires -period"))
		}
		opts.Profiles = make([]sim.Profile, len(c.Classes))
		for k, cl := range c.Classes {
			p, err := sim.NewSinusoid(cl.Lambda, *swing*cl.Lambda, *period)
			if err != nil {
				fatal(err)
			}
			opts.Profiles[k] = p
		}
		fmt.Printf("diurnal load: ±%.0f%% swing, period %.4g s\n", 100**swing, *period)
	}
	// Operating strategy. -controller is the umbrella flag; the original
	// -reactive spelling keeps working when -controller is unset.
	var modelCtl *control.Controller
	switch *controller {
	case "":
		if *reactive != 0 {
			opts.Controller = sim.UtilizationPolicy{Target: *reactive}
			opts.ControlPeriod = *epoch
			fmt.Printf("reactive DVFS: target utilization %.2f, epoch %.4g s\n", *reactive, *epoch)
		}
	case "static":
		if *reactive != 0 {
			fatal(fmt.Errorf("-controller=static contradicts -reactive %g", *reactive))
		}
	case "reactive":
		target := *reactive
		if target == 0 {
			target = 0.7
		}
		opts.Controller = sim.UtilizationPolicy{Target: target}
		opts.ControlPeriod = *epoch
		fmt.Printf("reactive DVFS: target utilization %.2f, epoch %.4g s\n", target, *epoch)
	case "model":
		if *reactive != 0 {
			fatal(fmt.Errorf("-controller=model contradicts -reactive %g", *reactive))
		}
		ctl, err := control.New(c, control.Config{Objective: control.EnergySLA})
		if err != nil {
			fatal(fmt.Errorf("-controller=model: %w (the model controller re-solves the energy/SLA plan, so the config needs SLA mean-delay bounds)", err))
		}
		modelCtl = ctl
		opts.PlanController = ctl
		opts.ControlPeriod = *epoch
		if opts.Windows == nil {
			// The autoscaler estimates arrival rates from the window
			// sensors; attach a set sized to the control epoch when the
			// user did not configure one with -window.
			w, err := window.NewSet(window.Config{Width: *epoch}, len(c.Classes), len(c.Tiers))
			if err != nil {
				fatal(err)
			}
			if reg != nil {
				w.Bind(reg)
			}
			opts.Windows = w
		}
		if opts.Replications != 1 {
			opts.Replications = 1
			fmt.Println("model controller: single replication (the controller is stateful across epochs)")
		}
		fmt.Printf("model-driven autoscaler: objective %v, epoch %.4g s\n", control.EnergySLA, *epoch)
	default:
		fatal(fmt.Errorf("-controller must be static, reactive or model, got %q", *controller))
	}
	if *sleepSetup > 0 {
		opts.Sleep = make([]*sim.SleepConfig, len(c.Tiers))
		for j := range c.Tiers {
			opts.Sleep[j] = &sim.SleepConfig{
				Setup:      queueing.NewExponential(*sleepSetup),
				SleepPower: *sleepWatts,
			}
		}
		fmt.Printf("instant-off sleep: setup mean %.4g s, %.4g W asleep\n", *sleepSetup, *sleepWatts)
	}
	if *mtbf > 0 {
		opts.Failures = make([]*sim.FailureConfig, len(c.Tiers))
		for j := range c.Tiers {
			opts.Failures[j] = &sim.FailureConfig{MTBF: *mtbf, MTTR: *mttr}
		}
		fmt.Printf("breakdowns: MTBF %.4g s, MTTR %.4g s (availability %.4g)\n",
			*mtbf, *mttr, opts.Failures[0].Availability())
	}
	if *deadline > 0 {
		opts.Deadlines = make([]*sim.DeadlineConfig, len(c.Classes))
		for k := range c.Classes {
			opts.Deadlines[k] = &sim.DeadlineConfig{
				Deadline: *deadline, MaxRetries: *maxRetries, RetryBackoff: *retryBackoff,
			}
		}
		fmt.Printf("deadlines: %.4g s per attempt, %d retries, backoff mean %.4g s\n",
			*deadline, *maxRetries, *retryBackoff)
	}
	if *shedThreshold > 0 {
		opts.Shedding = &sim.SheddingConfig{Threshold: *shedThreshold, Period: *shedPeriod}
		fmt.Printf("admission control: shed above %.2f utilization, epoch %.4g s\n",
			*shedThreshold, *shedPeriod)
	}
	if *fleetN > 0 {
		runFleet(c, m, opts, *fleetN, *fleetSpread, *seed)
		return
	}
	res, err := sim.Run(c, opts)
	if err != nil {
		fatal(err)
	}
	if err := finishTrace(); err != nil {
		fatal(fmt.Errorf("trace: %w", err))
	}
	if *spanOut != "" {
		if err := writeSpans(*spanOut, rec); err != nil {
			fatal(fmt.Errorf("span-out: %w", err))
		}
		fmt.Printf("chrome trace written to %s (%d spans; load via https://ui.perfetto.dev)\n",
			*spanOut, len(rec.Spans()))
	}

	fmt.Printf("simulated %d replications of %.4g s (warmup %.4g s)\n\n",
		opts.Replications, *horizon, *horizon*0.1)
	fmt.Println("per-class mean end-to-end delay (s):")
	for k, cl := range c.Classes {
		line := fmt.Sprintf("  %-10s model %8.4g   sim %8.4g %s  (err %.1f%%)",
			cl.Name, m.Delay[k], res.Delay[k].Mean, halfWidth(res.Delay[k]),
			100*res.Delay[k].RelErr(m.Delay[k]))
		if len(opts.Quantiles) > 0 {
			mq, err := cluster.DelayQuantile(c, m, k, *q)
			if err == nil {
				line += fmt.Sprintf("   p%.0f model %.4g sim %.4g",
					100**q, mq, res.DelayQuantile[k][*q])
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("\ncluster average power (W): model %.5g   sim %.5g %s  (err %.1f%%)\n",
		m.TotalPower, res.TotalPower.Mean, halfWidth(res.TotalPower),
		100*res.TotalPower.RelErr(m.TotalPower))
	fmt.Println("\nper-tier utilization:")
	for j, tr := range res.Tiers {
		fmt.Printf("  %-10s model %6.1f%%   sim %6.1f%%   power %.4g W\n",
			tr.Name, 100*m.Tiers[j].Utilization, 100*tr.Utilization.Mean, tr.Power.Mean)
	}
	fmt.Println("\nper-class dynamic energy per request (J):")
	for k, cl := range c.Classes {
		fmt.Printf("  %-10s model %8.4g   sim %8.4g %s\n",
			cl.Name, m.EnergyPerRequest[k], res.EnergyPerRequest[k].Mean, halfWidth(res.EnergyPerRequest[k]))
	}

	if modelCtl != nil {
		est := modelCtl.Estimates()
		fmt.Printf("\nautoscaler: %v; final rate estimates", modelCtl.Stats())
		for k, cl := range c.Classes {
			fmt.Printf("  %s %.4g/s (nominal %.4g)", cl.Name, est[k], cl.Lambda)
		}
		fmt.Println()
	}

	if opts.Failures != nil || opts.Deadlines != nil || opts.Shedding != nil {
		fmt.Println("\ndegraded mode (post-warmup, summed over replications):")
		for k, cl := range c.Classes {
			fmt.Printf("  %-10s goodput %8.4g req/s (offered %.4g)   timeouts %d  retries %d  abandoned %d  shed %d\n",
				cl.Name, res.Goodput[k].Mean, cl.Lambda,
				res.Timeouts[k], res.Retries[k], res.Abandoned[k], res.Shed[k])
		}
	}

	if rec != nil {
		fmt.Println("\nflight recorder: per-class sojourn breakdown (mean s):")
		for k, cl := range c.Classes {
			b := rec.Breakdown(k)
			fmt.Printf("  %-10s spans %6d (abandoned %d, dropped %d)   queue %8.4g  service %8.4g  preempted %8.4g  backoff %8.4g  = sojourn %8.4g\n",
				cl.Name, b.Spans(), b.Abandoned, b.Dropped,
				b.MeanQueue(), b.MeanService(), b.MeanPreempted(), b.MeanBackoff(), b.MeanSojourn())
		}
		if n := rec.EventsDropped(); n > 0 {
			fmt.Printf("  (ring overflow: %d events dropped; raise the recorder capacity)\n", n)
		}
	}
	if w := opts.Windows; w != nil {
		fmt.Printf("\nwindow sensors (last %.4g s of the recording replication):\n", w.Config().Width)
		for k, cl := range c.Classes {
			cs := w.Class(*horizon, k)
			fmt.Printf("  %-10s λ̂ %8.4g/s   mean sojourn %8.4g s   %s %8.4g s\n",
				cl.Name, cs.Rate, cs.MeanSojourn, w.Config().QuantileLabel(), cs.TailSojourn)
		}
	}

	if tl := res.Timeline; tl != nil {
		fmt.Printf("\nprobe: %d samples every %.4g s across %d series\n",
			tl.Len(), opts.Probe.Period, len(tl.Names()))
		for j, tr := range res.Tiers {
			name := fmt.Sprintf("tier%d_util", j)
			fmt.Printf("  %-10s time-avg util %.1f%%  peak queue %.0f\n",
				tr.Name, 100*tl.Mean(name), tl.Max(fmt.Sprintf("tier%d_queue", j)))
		}
	}
	if *timelineOut != "" {
		f, err := os.Create(*timelineOut)
		if err != nil {
			fatal(err)
		}
		if err := res.Timeline.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline written to %s\n", *timelineOut)
	}
	if *metricsOut != "" {
		// Fold the headline measurements into the registry next to the
		// event counters the probe already published.
		for j, tr := range res.Tiers {
			reg.Gauge(fmt.Sprintf("sim_tier%d_utilization", j), "measured busy fraction per server").Set(tr.Utilization.Mean)
			reg.Gauge(fmt.Sprintf("sim_tier%d_power_watts", j), "measured tier average power").Set(tr.Power.Mean)
		}
		for k := range c.Classes {
			reg.Gauge(fmt.Sprintf("sim_class%d_delay_seconds", k), "measured mean end-to-end delay").Set(res.Delay[k].Mean)
		}
		if err := obs.WriteMetricsFile(*metricsOut, reg, res.Timeline); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *httpAddr != "" {
		// The run is done but the endpoints stay live (final gauges, the
		// recorded trace, pprof) until the user interrupts.
		fmt.Println("run complete; still serving — interrupt (Ctrl-C) to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// scaleSpeeds clones the cluster with every tier's speed — and its DVFS
// clamp range — multiplied by factor, modeling a different server generation
// of the same configuration.
func scaleSpeeds(c *cluster.Cluster, factor float64) *cluster.Cluster {
	n := c.Clone()
	for _, t := range n.Tiers {
		t.Speed *= factor
		t.MinSpeed *= factor
		t.MaxSpeed *= factor
	}
	return n
}

// runFleet simulates n replicas of the configured cluster under one shared
// clock (internal/sim/multi) and prints per-replica and fleet-level results.
// Replica i runs on seed+i; with a positive spread the replica speeds fan
// out evenly across [1-spread, 1+spread], making the fleet heterogeneous.
func runFleet(c *cluster.Cluster, m *cluster.Metrics, base sim.Options, n int, spread float64, seed uint64) {
	replicas := make([]multi.Replica, n)
	factors := make([]float64, n)
	for i := range replicas {
		factor := 1.0
		rc := c
		if n > 1 && spread > 0 {
			factor = 1 - spread + 2*spread*float64(i)/float64(n-1)
			rc = scaleSpeeds(c, factor)
		}
		factors[i] = factor
		replicas[i] = multi.Replica{
			Name:    fmt.Sprintf("replica%d", i),
			Cluster: rc,
			Options: base,
			Seed:    seed + uint64(i),
		}
	}
	orch, err := multi.New(replicas)
	if err != nil {
		fatal(err)
	}
	results, err := orch.Results()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("simulated %d replicas under one shared clock, %.4g s each (speed spread ±%.0f%%)\n\n",
		n, base.Horizon, 100*spread)
	fmt.Println("per-replica results:")
	for i, res := range results {
		var done int64
		for _, nk := range res.Completed {
			done += nk
		}
		fmt.Printf("  %-10s speed x%-5.3g power %8.5g W   weighted delay %8.4g s   completed %d\n",
			orch.Name(i), factors[i], res.TotalPower.Mean, res.WeightedDelay.Mean, done)
		for j, tr := range res.Tiers {
			fmt.Printf("    %-10s util %6.1f%% (model at x1: %5.1f%%)   power %.4g W\n",
				tr.Name, 100*tr.Utilization.Mean, 100*m.Tiers[j].Utilization, tr.Power.Mean)
		}
	}
	s := multi.Summarize(results)
	fmt.Printf("\nfleet rollup: power %.5g W   weighted delay %.4g s   completed %d\n",
		s.TotalPower, s.WeightedDelay, s.Completed)
}

// writeSpans dumps the recorder's spans as Chrome trace-event JSON.
func writeSpans(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Safety net for early error returns; the success path closes (and
	// checks) explicitly below.
	defer func() { _ = f.Close() }()
	w := bufio.NewWriter(f)
	if err := rec.WriteChromeTrace(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// halfWidth renders an estimate's confidence half-width as "±h", or as
// "(no CI)" when a single replication gave no interval.
func halfWidth(e stats.Estimate) string {
	if !e.HasCI() {
		return "(no CI)"
	}
	return fmt.Sprintf("±%.3g", e.HalfW)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrun:", err)
	os.Exit(1)
}
