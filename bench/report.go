package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"clusterq/internal/cluster"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints: what a user of clusterq
// waits for and pays, on every workload. Times are CPU times scaled by the
// gauge to an idle host's speed; the unscaled median is printed beside them,
// but on a shared host it measures the neighbours as much as the program.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"op_mean_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// simEventKinds are the probe's event counters reported as sim.ev.<name>,
// keyed by the simulator's event vocabulary.
var simEventKinds = []struct{ name, key string }{
	{"arrival", "arrival"}, {"start", "service_start"}, {"preempt", "preempt"},
	{"exit", "exit"}, {"retune", "retune"}, {"park", "park"},
	{"breakdown", "breakdown"}, {"timeout", "timeout"}, {"retry", "retry"},
	{"abandon", "abandon"},
}

// perLayer are the metrics a traced run prints. Every workload prints every
// one; a layer a workload does not exercise reads 0. Times are given as
// shares of the traced work (or as a rate) so that only work actually
// measured is ever reported as a duration.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.trace_overhead_pct", "%"},
		{"bench.span_cost_pct", "%"},
		{"bench.share_pct", "%"},
		{"cluster.evaluate_us", "us"},
		{"cluster.evaluate_allocs", "count"},
		{"cluster.share_pct", "%"},
		{"core.share_pct", "%"},
		{"core.evals_per_solve", "count"},
		{"core.eval_share_pct", "%"},
		{"core.converged_ratio", "ratio"},
		{"core.objective_gap_pct", "%"},
		{"control.share_pct", "%"},
		{"control.solve_ratio", "ratio"},
		{"control.fallbacks", "count"},
		{"control.power_w", "W"},
		{"control.sla_misses", "count"},
		{"sim.share_pct", "%"},
		{"sim.events_per_rep", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.alloc_B_per_event", "B"},
		{"sim.jobs_per_event", "ratio"},
		{"sim.jobs_per_s", "1/s"},
		{"sim.inflight_mean", "count"},
		{"sim.inflight_peak", "count"},
	}
	for _, k := range simEventKinds {
		defs = append(defs, metricDef{"sim.ev." + k.name, "count"})
	}
	return append(defs,
		metricDef{"obs.overhead_pct", "%"},
		metricDef{"mem.alloc_B_per_op", "B"},
		metricDef{"mem.allocs_per_op", "count"},
		metricDef{"mem.gc_per_op", "count"},
	)
}()

// measured is one run's metric values; a percentile with too few samples
// beyond it is refused (printed as null) rather than reported.
type measured struct {
	values  map[string]float64
	refused map[string]string
}

func newMeasured() measured {
	return measured{values: map[string]float64{}, refused: map[string]string{}}
}

func (m measured) percentile(name string, xs []float64, p float64) {
	v, ok := nearestRank(xs, p)
	if !ok {
		m.refused[name] = fmt.Sprintf("%d samples leave fewer than %d beyond p%g", len(xs), minBeyond, 100*p)
		return
	}
	m.values[name] = v
}

// ratio is num/den, or 0 when there is nothing to divide — a layer the
// workload does not exercise.
func ratio(num, den float64) float64 {
	if !(den > 0) {
		return 0
	}
	return num / den
}

// pairedOverheadPct is how much slower with is than without, in percent,
// where with[k] and without[k] ran the same op back to back: the median of
// their ratios cancels the spread between ops. 0 when there are no pairs.
func pairedOverheadPct(with, without []float64) float64 {
	n := min(len(with), len(without))
	if n == 0 {
		return 0
	}
	r := make([]float64, n)
	for k := range r {
		r[k] = ratio(with[k], without[k])
	}
	return 100 * (median(r) - 1)
}

// endToEndMetrics reports the set-up times and op latencies, both already
// scaled by the gauge.
func endToEndMetrics(setupS, opMS []float64) measured {
	m := newMeasured()
	m.values["setup_s"] = median(setupS)
	m.percentile("op_p50_ms", opMS, 0.5)
	m.percentile("op_p90_ms", opMS, 0.9)
	m.values["op_mean_ms"] = ratio(sum(opMS), float64(len(opMS)))
	m.values["max_rss_mb"] = maxRSSMB()
	return m
}

func perLayerMetrics(w runner, s *session) (measured, error) {
	m := newMeasured()
	evalUS, evalAllocs, err := evaluateCost(w.model())
	if err != nil {
		return m, err
	}
	a := s.tr.attribute()
	f := &s.f
	v := m.values
	share := func(layer string) float64 { return 100 * ratio(float64(a.selfTime[layer]), float64(a.rootTime)) }

	v["bench.trace_overhead_pct"] = pairedOverheadPct(s.traced, s.plain)
	v["bench.span_cost_pct"] = 100 * ratio(float64(len(s.tr.spans))*float64(spanCost()), float64(a.rootTime))
	v["bench.share_pct"] = share(layerBench)

	v["cluster.evaluate_us"] = evalUS
	v["cluster.evaluate_allocs"] = evalAllocs
	v["cluster.share_pct"] = share(layerCluster)

	v["core.share_pct"] = share(layerCore)
	v["core.evals_per_solve"] = ratio(float64(f.evals), float64(f.solves))
	v["core.eval_share_pct"] = 100 * ratio(float64(f.alEvals)*evalUS, us(f.alSolve))
	v["core.converged_ratio"] = ratio(float64(f.converged), float64(f.solves))
	v["core.objective_gap_pct"] = ratio(sum(f.gapPct), float64(len(f.gapPct)))

	v["control.share_pct"] = share(layerControl)
	v["control.solve_ratio"] = ratio(float64(f.ctlSolves), float64(f.epochs))
	v["control.fallbacks"] = ratio(float64(f.fallbacks), float64(f.runs))
	v["control.power_w"] = ratio(f.powerW, float64(f.runs))
	v["control.sla_misses"] = ratio(float64(f.slaMisses), float64(f.runs))

	// The event loop's own time and bytes: the serial replay where there is
	// one, else the sim spans' self time (which excludes controller calls).
	simTime, simBytes := a.selfTime[layerSim], a.selfBytes[layerSim]
	if f.serial > 0 {
		simTime, simBytes = f.serial, f.serialBytes
	}
	events := float64(f.events)
	v["sim.share_pct"] = share(layerSim)
	v["sim.events_per_rep"] = ratio(events, float64(f.reps))
	v["sim.events_per_s"] = ratio(events, simTime.Seconds())
	v["sim.alloc_B_per_event"] = ratio(simBytes, events)
	v["sim.jobs_per_event"] = ratio(float64(f.jobs), events)
	v["sim.jobs_per_s"] = ratio(float64(f.jobs), a.rootTime.Seconds())
	v["sim.inflight_mean"] = f.inflightMean
	v["sim.inflight_peak"] = f.inflightPeak
	for _, k := range simEventKinds {
		v["sim.ev."+k.name] = float64(f.probeEvents[k.key])
	}

	v["obs.overhead_pct"] = pairedOverheadPct(f.attached, f.detached)

	ops := float64(len(s.traced))
	v["mem.alloc_B_per_op"] = ratio(a.rootBytes, ops)
	v["mem.allocs_per_op"] = ratio(a.rootObjects, ops)
	v["mem.gc_per_op"] = ratio(a.rootGC, ops)
	return m, nil
}

// spanCost is what recording one span costs: the mean of many empty calls
// on a fresh tracer. Times the spans a traced run recorded, it is the
// tracer's own share of the traced work, without the noise of comparing two
// copies of each op.
func spanCost() time.Duration {
	const calls = 10000
	t := newTracer()
	t0 := time.Now()
	for range calls {
		t.call("empty", layerBench, func() {})
	}
	return time.Since(t0) / calls
}

// evaluateCost times 2000 direct calls of the analytic evaluation on the
// workload's cluster, returning the median call in µs and the exact heap
// allocations per call.
func evaluateCost(c *cluster.Cluster) (float64, float64, error) {
	const calls = 2000
	lat := make([]float64, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range lat {
		t0 := time.Now()
		if _, err := cluster.Evaluate(c); err != nil {
			return 0, 0, err
		}
		lat[i] = us(time.Since(t0))
	}
	runtime.ReadMemStats(&after)
	return median(lat), float64(after.Mallocs-before.Mallocs) / calls, nil
}

// cpuTime is the CPU time the process has used so far, user and system, over
// all its threads — the garbage collector's included. The benchmark times
// its work with it rather than the wall clock: the kernel leaves out of it
// the time the CPU ran something else, in this process's guest or, where the
// hypervisor reports steal time, on the host, so a busy neighbour does not
// read as a slower program. With GOMAXPROCS 1 it runs at most as fast as the
// wall clock, and equals it on an idle machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// summary is the last line of every run, the one compare and other tools
// parse.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value *float64 `json:"value"` // null only for a refused percentile
	Unit  string   `json:"unit"`
}

// render prints each metric by name and unit, then the summary line.
func render(b *strings.Builder, defs []metricDef, m measured, s *session, notes map[string]string) error {
	sm := summary{
		Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		jm := jsonMetric{Unit: d.unit}
		if why, ok := m.refused[d.name]; ok {
			fmt.Fprintf(b, "%-26s %14s %-6s %s\n", d.name, "refused", d.unit, why)
		} else {
			v, ok := m.values[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			jm.Value = &v
			fmt.Fprintf(b, "%-26s %14.6g %-6s %s\n", d.name, v, d.unit, notes[d.name])
		}
		sm.Metrics[d.name] = jm
	}
	fmt.Fprintf(b, "%-26s %14d of %d ops\n", "failed", s.failed, s.attempted)
	line, err := json.Marshal(sm)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	return nil
}
