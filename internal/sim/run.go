package sim

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"clusterq/internal/cluster"
	"clusterq/internal/obs"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/queueing"
	"clusterq/internal/stats"
)

// ZeroWarmup requests a replication with NO warmup discard: every arrival
// from t=0 counts toward the steady-state output. It exists because the
// Options zero value must keep meaning "use the default warmup" — an
// explicit Warmup of 0 is indistinguishable from an unset field, so the
// explicit request is spelled with a negative sentinel instead.
const ZeroWarmup = -1.0

// Options configures a simulation experiment.
type Options struct {
	// Horizon is the simulated time per replication (required, finite, > 0).
	Horizon float64
	// Warmup is the initial transient discarded from every replication.
	// Leaving it at zero selects the default of 10% of the horizon; to
	// measure from t=0 with no discard, set Warmup to ZeroWarmup (any
	// negative value works). Values in (0, Horizon) are used as given.
	Warmup float64
	// Replications is the number of independent runs (default 5); the 95%
	// confidence intervals come from across-replication variability.
	Replications int
	// Seed selects the replication seed sequence (replication r uses
	// Seed + r), making experiments reproducible.
	Seed uint64
	// Quantiles lists end-to-end delay quantiles to estimate per class
	// (e.g. 0.95); empty means none.
	Quantiles []float64
	// Profiles optionally replaces each class's constant Poisson arrivals
	// with a time-varying profile (nil entries keep the constant rate).
	// When set, its length must equal the class count. This is the
	// workload side of the dynamic power management extension; the
	// analytical model stays stationary.
	Profiles []Profile
	// Controller optionally runs a per-station DVFS policy at runtime,
	// re-deciding every ControlPeriod simulated seconds. Requires
	// ControlPeriod > 0. Each replication adapts it into a PlanController
	// that retunes every station and never parks.
	Controller Controller
	// PlanController optionally runs a plan-level (cluster-wide) controller
	// at runtime instead — the hook the model-driven autoscaler in
	// internal/control plugs into. Requires ControlPeriod > 0 and exactly
	// one replication (plan controllers are stateful across epochs, so a
	// single instance cannot be shared by parallel replications); at most
	// one of Controller and PlanController may be set. When Windows is also
	// set, the epoch observation carries the windowed per-class arrival-
	// rate estimates.
	PlanController PlanController
	ControlPeriod  float64
	// Trace, when non-nil, streams every simulator event as a CSV row
	// (header time,event,class,job,station,value). Tracing requires
	// Replications == 1 — interleaved traces from parallel replications
	// would be meaningless. Wrap the writer in bufio for long runs; traces
	// are large.
	Trace io.Writer
	// Recorder, when non-nil, attaches the flight recorder: every job
	// lifecycle event (arrival, service start/stop, preemption, timeout,
	// backoff, resume, exit) reaches it through the simulator's lifecycle
	// tap, and it assembles them into per-job spans with an exact
	// queue/service/preempted/backoff sojourn decomposition. The tap
	// buffers the events and hands them over in batches of up to 256, one
	// Recorder.Record call (one lock) per batch. It flushes when the batch
	// is full, on every probe sample, when Replication.AdvanceTo or
	// Replication.Run returns, and when the replication finishes (Run, or
	// Replication.Result). Between flushes — mid-Run for a concurrent
	// reader, or after a bare Replication.ProcessNextEvent — the recorder
	// trails the simulator by at most 255 events. Like Trace, the recorder
	// requires Replications == 1: job ids repeat across replications and
	// interleaved spans would be meaningless. With no observer attached,
	// the tap costs one predictable branch per event.
	Recorder *trace.Recorder
	// Windows, when non-nil, attaches streaming sliding-window estimators
	// (per-class arrival rate, mean and tail sojourn, per-tier utilization)
	// fed by replication 0 — the sensor layer an online controller reads
	// mid-run. The Set's class/tier dimensions must match the cluster.
	// Utilization sensing and gauge publication ride the probe's sampling
	// tick, so attach a Probe to keep them fresh; arrival and sojourn
	// observations flow regardless.
	Windows *window.Set
	// Probe optionally attaches the observability layer: periodic sampling
	// of per-tier queue length, busy servers, utilization and power plus
	// per-class in-flight counts (surfaced in Result.Timeline, recorded on
	// replication 0), and per-event-type counters summed over every
	// replication (Result.EventCounts). A nil probe costs nothing.
	Probe *Probe
	// Progress, when non-nil, is called once per completed replication
	// with the running completion count and the total. Replications run
	// concurrently, so the callback must be safe for concurrent use (an
	// atomic store, a channel send); counts arrive in completion order.
	Progress func(done, total int)
	// Sleep optionally enables the instant-off sleep policy per tier: a
	// non-nil entry j means tier j's idle servers power down to SleepPower
	// watts and pay a Setup period (at busy power) before serving the
	// first request of each busy period. Length must equal the tier count
	// when set. Preemption is not combined with sleep: a sleeping tier
	// serves in strict priority order without interrupting service.
	Sleep []*SleepConfig
	// Failures optionally enables per-tier server breakdown/repair
	// processes: a non-nil entry j gives tier j's servers exponential
	// MTBF/MTTR fail-stop failures. Length must equal the tier count when
	// set; a tier cannot combine Failures with Sleep.
	Failures []*FailureConfig
	// Deadlines optionally gives classes per-attempt response-time
	// deadlines with retry-or-abandon semantics; a nil entry leaves the
	// class unbounded. Length must equal the class count when set.
	Deadlines []*DeadlineConfig
	// Shedding optionally enables priority-aware admission control: when
	// measured utilization crosses the threshold, the lowest-priority
	// classes' arrivals are refused first.
	Shedding *SheddingConfig
}

// SleepConfig parameterizes a tier's instant-off sleep policy.
type SleepConfig struct {
	// Setup is the wake-up (setup) time distribution.
	Setup queueing.ServiceDist
	// SleepPower is the per-server power draw while asleep (W), typically
	// far below the idle power the always-on model pays.
	SleepPower float64
}

func (o *Options) defaults() error {
	if !(o.Horizon > 0) || math.IsInf(o.Horizon, 1) {
		// An infinite horizon would never stop the event loop.
		return fmt.Errorf("sim: horizon %g must be positive and finite", o.Horizon)
	}
	switch {
	case math.IsNaN(o.Warmup):
		// NaN compares false against every event time, so the warmup would
		// never end and every arrival would be filtered out.
		return fmt.Errorf("sim: warmup %g is not a number", o.Warmup)
	case o.Warmup < 0:
		// ZeroWarmup (or any negative value): an explicit zero-warmup run.
		o.Warmup = 0
	case o.Warmup == 0:
		o.Warmup = o.Horizon * 0.1
	case o.Warmup >= o.Horizon:
		return fmt.Errorf("sim: warmup %g must be below the horizon %g", o.Warmup, o.Horizon)
	}
	if o.Replications <= 0 {
		o.Replications = 5
	}
	if (o.Controller != nil || o.PlanController != nil) && !(o.ControlPeriod > 0) {
		return fmt.Errorf("sim: a controller requires a positive control period")
	}
	if v, ok := o.Controller.(interface{ validate() error }); ok {
		if err := v.validate(); err != nil {
			return err
		}
	}
	if o.Controller != nil && o.PlanController != nil {
		return fmt.Errorf("sim: Controller and PlanController are mutually exclusive")
	}
	if o.PlanController != nil && o.Replications != 1 {
		return fmt.Errorf("sim: a plan controller requires exactly 1 replication, got %d", o.Replications)
	}
	if o.Trace != nil && o.Replications != 1 {
		return fmt.Errorf("sim: tracing requires exactly 1 replication, got %d", o.Replications)
	}
	if o.Recorder != nil && o.Replications != 1 {
		return fmt.Errorf("sim: the flight recorder requires exactly 1 replication, got %d", o.Replications)
	}
	if err := o.Probe.validate(o.Horizon); err != nil {
		return err
	}
	return nil
}

// validateSleep cross-checks the sleep configs against the tier count.
func (o *Options) validateSleep(numTiers int) error {
	if o.Sleep == nil {
		return nil
	}
	if len(o.Sleep) != numTiers {
		return fmt.Errorf("sim: %d sleep configs for %d tiers", len(o.Sleep), numTiers)
	}
	for j, sc := range o.Sleep {
		if sc == nil {
			continue
		}
		if sc.Setup == nil || !(sc.Setup.Mean() > 0) {
			return fmt.Errorf("sim: tier %d sleep config lacks a setup distribution", j)
		}
		if sc.SleepPower < 0 {
			return fmt.Errorf("sim: tier %d negative sleep power %g", j, sc.SleepPower)
		}
	}
	return nil
}

// validateProfiles cross-checks the profile list against the class count,
// applies the package's own profiles' constructor checks to them (so a
// Sinusoid, SquareWave or Schedule literal is held to what its constructor
// would accept), and requires every profile's MaxRate to be
// finite and non-negative: arrivals are thinned from a Poisson stream at
// that rate, so an infinite one puts every candidate at t = 0 and the run
// never advances.
func (o *Options) validateProfiles(numClasses int) error {
	if o.Profiles == nil {
		return nil
	}
	if len(o.Profiles) != numClasses {
		return fmt.Errorf("sim: %d profiles for %d classes", len(o.Profiles), numClasses)
	}
	for k, p := range o.Profiles {
		if p == nil {
			continue
		}
		if v, ok := p.(interface{ valid() bool }); ok && !v.valid() {
			return fmt.Errorf("sim: class %d profile %+v is invalid", k, p)
		}
		if m := p.MaxRate(); !(m >= 0) || math.IsInf(m, 1) {
			return fmt.Errorf("sim: class %d profile has invalid max rate %g", k, m)
		}
	}
	return nil
}

// TierResult is the measured steady state of one tier.
type TierResult struct {
	Name        string
	Utilization stats.Estimate // mean busy fraction per server
	Power       stats.Estimate // average power draw (W)
	// WaitByClass[k] is the mean waiting time class k experiences per
	// visit to this tier — the per-tier decomposition of the end-to-end
	// delays, useful for locating which tier hurts which class.
	WaitByClass []stats.Estimate
}

// Result aggregates the simulation output across replications.
type Result struct {
	// Delay[k] is class k's measured mean end-to-end response time.
	Delay []stats.Estimate
	// DelayQuantile[k][p] is the measured p-quantile of class k's delay
	// (averaged across replications).
	DelayQuantile []map[float64]float64
	// WeightedDelay is the completion-weighted all-class mean delay.
	WeightedDelay stats.Estimate
	// TotalPower is the measured cluster average power (W).
	TotalPower stats.Estimate
	// EnergyPerRequest[k] is the measured dynamic energy per class-k
	// request (J).
	EnergyPerRequest []stats.Estimate
	// Tiers holds per-tier measurements.
	Tiers []TierResult
	// Completed[k] counts post-warmup completions of class k, summed over
	// replications.
	Completed []int64
	// Goodput[k] is class k's measured post-warmup completion rate
	// (requests per second). Without deadlines or shedding it is the plain
	// throughput; with them it is what the cluster actually delivered.
	Goodput []stats.Estimate
	// Timeouts, Retries, Abandoned and Shed count the degraded-mode events
	// per class (post-warmup arrivals only, summed over replications):
	// expired attempt deadlines, re-entries, requests that exhausted their
	// retry budget, and arrivals refused by admission control. All zeros
	// when the corresponding feature is off.
	Timeouts, Retries, Abandoned, Shed []int64
	// Replications actually run.
	Replications int
	// Timeline holds the probe's sampled time series from replication 0
	// (nil unless Options.Probe is set): per-tier queue length, busy
	// servers, utilization and instantaneous power, per-class in-flight
	// counts, and total power, sampled every Probe.Period.
	Timeline *obs.Timeline
	// EventCounts sums simulator events by trace-event name across all
	// replications (nil unless Options.Probe is set).
	EventCounts map[string]int64
}

// repOutput is the per-replication summary fed to the aggregator.
type repOutput struct {
	delay     []float64
	wDelay    float64
	quant     []map[float64]float64
	power     float64
	energy    []float64 // per request, per class
	goodput   []float64 // per class: completions over the measured span
	tierUtil  []float64
	tierPower []float64
	tierWait  [][]float64 // [tier][class] mean wait per visit
	completed []int64
	timeouts  []int64
	retries   []int64
	abandoned []int64
	shed      []int64
	events    [numCounted]int64
	tl        *obs.Timeline // replication 0 only, with a probe attached
}

// validate resolves the option defaults and runs the full cross-check chain
// against the cluster — the one validation path shared by Run and
// NewReplication, so a stepped replication rejects exactly what a closed run
// rejects. The receiver is a pointer: defaults() rewrites fields in place.
func (o *Options) validate(c *cluster.Cluster) error {
	if err := o.defaults(); err != nil {
		return err
	}
	if err := c.Validate(); err != nil {
		return err
	}
	k := len(c.Classes)
	jn := len(c.Tiers)
	if err := o.validateProfiles(k); err != nil {
		return err
	}
	if err := o.validateSleep(jn); err != nil {
		return err
	}
	if err := o.validateFailures(jn); err != nil {
		return err
	}
	if err := o.validateDeadlines(k); err != nil {
		return err
	}
	if err := o.validateShedding(); err != nil {
		return err
	}
	if o.Windows != nil && (o.Windows.Classes() != k || o.Windows.Tiers() != jn) {
		return fmt.Errorf("sim: window set sized for %d classes / %d tiers, cluster has %d / %d",
			o.Windows.Classes(), o.Windows.Tiers(), k, jn)
	}
	return nil
}

// Run simulates the cluster and aggregates the replications.
func Run(c *cluster.Cluster, o Options) (*Result, error) {
	if err := o.validate(c); err != nil {
		return nil, err
	}
	// Replications are independent (own RNG streams, own event calendar)
	// and read the cluster immutably, so they run in parallel, bounded by
	// the CPU count. Each replication's seed fixes its result, so the
	// output is deterministic regardless of scheduling.
	reps := make([]repOutput, o.Replications)
	errs := make([]error, o.Replications)
	var wg sync.WaitGroup
	var done atomic.Int64
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for r := 0; r < o.Replications; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s, err := newSimulator(c, o, o.Seed+uint64(r), r == 0)
			if err != nil {
				errs[r] = err
				return
			}
			s.run()
			reps[r], errs[r] = s.finish()
			if errs[r] != nil {
				return
			}
			if o.Progress != nil {
				o.Progress(int(done.Add(1)), o.Replications)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return aggregate(c, o, reps), nil
}

// finish flushes the replication's trace and recorder, surfaces any
// buffered trace write error — a trace that stopped writing mid-run is
// truncated data, not a result — and reduces the collectors to the
// per-replication summary.
func (s *simulator) finish() (repOutput, error) {
	s.tap.flushRecorder()
	s.tap.tr.flush()
	if err := s.tap.tr.Err(); err != nil {
		return repOutput{}, fmt.Errorf("sim: trace write failed: %w", err)
	}
	return s.summarize(), nil
}

// confidence is the level of every confidence interval a Result reports.
const confidence = 0.95

// aggregate folds per-replication summaries into the cross-replication
// Result (confidence intervals from across-replication variability) and
// publishes the probe's registry output. Shared by Run and the stepped
// Replication's Result, so both finalize identically.
func aggregate(c *cluster.Cluster, o Options, reps []repOutput) *Result {
	k := len(c.Classes)
	jn := len(c.Tiers)
	res := &Result{
		Delay:            make([]stats.Estimate, k),
		DelayQuantile:    make([]map[float64]float64, k),
		EnergyPerRequest: make([]stats.Estimate, k),
		Tiers:            make([]TierResult, jn),
		Completed:        make([]int64, k),
		Goodput:          make([]stats.Estimate, k),
		Timeouts:         make([]int64, k),
		Retries:          make([]int64, k),
		Abandoned:        make([]int64, k),
		Shed:             make([]int64, k),
		Replications:     o.Replications,
	}

	agg := func(pick func(repOutput) float64) stats.Estimate {
		var w stats.Welford
		var n int64
		for _, r := range reps {
			v := pick(r)
			if !math.IsNaN(v) {
				w.Add(v)
			}
		}
		n = w.Count()
		return stats.Estimate{
			Mean: w.Mean(), HalfW: w.CI(confidence), Level: confidence,
			Samples: n, Batches: n,
		}
	}

	for cl := 0; cl < k; cl++ {
		cl := cl
		res.Delay[cl] = agg(func(r repOutput) float64 { return r.delay[cl] })
		res.EnergyPerRequest[cl] = agg(func(r repOutput) float64 { return r.energy[cl] })
		res.Goodput[cl] = agg(func(r repOutput) float64 { return r.goodput[cl] })
		for _, r := range reps {
			res.Completed[cl] += r.completed[cl]
			res.Timeouts[cl] += r.timeouts[cl]
			res.Retries[cl] += r.retries[cl]
			res.Abandoned[cl] += r.abandoned[cl]
			res.Shed[cl] += r.shed[cl]
		}
		// Quantiles: average across replications.
		if len(o.Quantiles) > 0 {
			m := make(map[float64]float64, len(o.Quantiles))
			for _, p := range o.Quantiles {
				var w stats.Welford
				for _, r := range reps {
					if v := r.quant[cl][p]; !math.IsNaN(v) {
						w.Add(v)
					}
				}
				m[p] = w.Mean()
			}
			res.DelayQuantile[cl] = m
		}
	}
	res.WeightedDelay = agg(func(r repOutput) float64 { return r.wDelay })
	res.TotalPower = agg(func(r repOutput) float64 { return r.power })
	for j := 0; j < jn; j++ {
		j := j
		waits := make([]stats.Estimate, k)
		for cl := 0; cl < k; cl++ {
			cl := cl
			waits[cl] = agg(func(r repOutput) float64 { return r.tierWait[j][cl] })
		}
		res.Tiers[j] = TierResult{
			Name:        c.Tiers[j].Name,
			Utilization: agg(func(r repOutput) float64 { return r.tierUtil[j] }),
			Power:       agg(func(r repOutput) float64 { return r.tierPower[j] }),
			WaitByClass: waits,
		}
	}
	if o.Probe != nil {
		res.Timeline = reps[0].tl
		res.EventCounts = make(map[string]int64, numCounted)
		for k := tapKind(0); k < numCounted; k++ {
			if !probeKindActive(k, o) {
				continue
			}
			var total int64
			for _, r := range reps {
				total += r.events[k]
			}
			res.EventCounts[tapKinds[k].csv] = total
		}
		publishProbe(o.Probe, res, o.Horizon)
	}
	return res
}

// summarize reduces one replication's raw collectors to scalars.
func (s *simulator) summarize() repOutput {
	// Degenerate light-traffic runs can finish with no live event ever
	// landing in [warmup, horizon]: the event-driven reset never fires and
	// the time-weighted busy/power statistics would silently include the
	// transient. Finalize from the clock instead. The reset lands on the
	// first dead event that was due in that window (see elidedAt), else at
	// the warmup boundary, the latest point the first in-window event could
	// not have preceded. A no-op on every non-degenerate run, where the
	// first post-warmup event already flipped warmupDone.
	if !s.warmupDone {
		at := s.warmup
		if s.elidedAt <= s.horizon {
			at = s.elidedAt
		}
		s.endWarmup(at)
	}
	k := len(s.c.Classes)
	out := repOutput{
		delay:     make([]float64, k),
		quant:     make([]map[float64]float64, k),
		energy:    make([]float64, k),
		goodput:   make([]float64, k),
		tierUtil:  make([]float64, len(s.stations)),
		tierPower: make([]float64, len(s.stations)),
		completed: make([]int64, k),
		timeouts:  s.timeouts,
		retries:   s.retries,
		abandoned: s.abandoned,
		shed:      s.shed,
		events:    s.tap.counts,
		tl:        s.tl,
	}
	// The measured span: post-warmup simulated time, the denominator of the
	// per-class goodput rates.
	measured := s.horizon - s.warmup
	var wNum, wDen float64
	for cl := 0; cl < k; cl++ {
		out.delay[cl] = s.delay[cl].Mean()
		out.completed[cl] = s.completed[cl]
		if measured > 0 {
			out.goodput[cl] = float64(s.completed[cl]) / measured
		}
		if n := s.completed[cl]; n > 0 {
			wNum += float64(n) * s.delay[cl].Mean()
			wDen += float64(n)
		}
		q := make(map[float64]float64, len(s.quantiles))
		for _, p := range s.quantiles {
			q[p] = s.delayQ[cl].Value(p)
		}
		out.quant[cl] = q
	}
	if wDen > 0 {
		out.wDelay = wNum / wDen
	} else {
		out.wDelay = math.NaN()
	}

	span := s.horizon
	out.tierWait = make([][]float64, len(s.stations))
	for j, st := range s.stations {
		out.tierWait[j] = make([]float64, k)
		for cl := 0; cl < k; cl++ {
			out.tierWait[j][cl] = st.waitByCls[cl].Mean()
		}
		c := &st.clock
		busyMean := c.mean(&c.busy, c.b, span)
		if math.IsNaN(busyMean) {
			busyMean = 0
		}
		out.tierUtil[j] = busyMean / float64(st.servers)
		// Power is integrated directly so runtime speed changes are
		// accounted exactly.
		p := c.mean(&c.power, c.p, span)
		if math.IsNaN(p) {
			p = c.p
		}
		out.tierPower[j] = p
		out.power += out.tierPower[j]
	}

	// Per-class dynamic energy per request: energy accumulated at all
	// stations divided by completions of the class.
	for cl := 0; cl < k; cl++ {
		var e float64
		for _, st := range s.stations {
			e += st.svcEnergy[cl]
		}
		// Use end-to-end completions as the divisor; station visits of
		// in-flight jobs make the numerator slightly larger, a vanishing
		// edge effect over long horizons.
		if s.completed[cl] > 0 {
			out.energy[cl] = e / float64(s.completed[cl])
		} else {
			out.energy[cl] = math.NaN()
		}
	}
	return out
}
