package sim

import (
	"fmt"

	"clusterq/internal/obs"
)

// Probe configures the simulator's observability hooks: periodic time-series
// sampling of the system state and per-event-type counters. Attach one via
// Options.Probe; a nil probe leaves the engine on its unobserved fast path.
type Probe struct {
	// Period is the sampling period in simulated seconds (required, > 0).
	// Every Period the probe records, per tier, the waiting-queue length,
	// busy servers, utilization and instantaneous power, plus the
	// system-wide per-class in-flight counts and total power. The timeline
	// keeps every sample, so Horizon/Period may be at most 1<<20
	// (1,048,576) samples.
	Period float64
	// Registry optionally receives the aggregated event counters
	// (sim_events_<kind>_total) and run-level gauges after Run completes,
	// for exposition through obs.Registry.WriteJSON / WritePrometheus.
	// May be nil.
	Registry *obs.Registry
}

// maxProbeSamples bounds a run's timeline: Horizon/Period samples, each a
// row the timeline keeps. A period far below the horizon would append rows
// until memory ran out.
const maxProbeSamples = 1 << 20

func (p *Probe) validate(horizon float64) error {
	if p == nil {
		return nil
	}
	if !(p.Period > 0) {
		return fmt.Errorf("sim: probe period %g must be positive", p.Period)
	}
	if !(horizon/p.Period <= maxProbeSamples) {
		return fmt.Errorf("sim: probe period %g asks for %.3g samples over the horizon %g; at most %d (1<<20) are kept",
			p.Period, horizon/p.Period, horizon, maxProbeSamples)
	}
	return nil
}

// probeKindActive reports whether a counted kind's counter can be nonzero
// under the given options. Inactive counters are omitted from
// Result.EventCounts so failure-free results — and the golden hashes pinned
// on them — are untouched by the failure subsystem's vocabulary. Parking
// keys on the caller's PlanController: a per-station Controller runs as a
// plan controller too, but never parks.
func probeKindActive(k tapKind, o Options) bool {
	switch k {
	case tkBreakdown, tkRepair:
		return o.Failures != nil
	case tkTimeout, tkRetry, tkAbandon:
		return o.Deadlines != nil
	case tkShed:
		return o.Shedding != nil
	case tkPark:
		return o.PlanController != nil
	default:
		return true
	}
}

// timelineSeriesNames builds the probe's column layout for jn tiers and kn
// classes: per tier queue/busy/util/power, per class in-flight, then the
// cluster-wide power.
func timelineSeriesNames(jn, kn int) []string {
	names := make([]string, 0, 4*jn+kn+1)
	for j := 0; j < jn; j++ {
		names = append(names,
			fmt.Sprintf("tier%d_queue", j),
			fmt.Sprintf("tier%d_busy", j),
			fmt.Sprintf("tier%d_util", j),
			fmt.Sprintf("tier%d_power", j),
		)
	}
	for k := 0; k < kn; k++ {
		names = append(names, fmt.Sprintf("class%d_inflight", k))
	}
	names = append(names, "power_total")
	return names
}

// handleSample records one probe observation and schedules the next. Only the
// recording replication (replication 0) carries a timeline; the others still
// count events.
func (s *simulator) handleSample() {
	now := s.cal.now
	s.tap.flushRecorder() // so live readers of the recorder stay current
	if s.tl != nil {
		row := s.tl.Row()
		i := 0
		var totalPower float64
		for _, st := range s.stations {
			p := st.clock.p
			row[i] = float64(st.queueLen())
			row[i+1] = float64(len(st.running))
			row[i+2] = float64(len(st.running)) / float64(st.servers)
			row[i+3] = p
			i += 4
			totalPower += p
		}
		for _, n := range s.tap.inflight {
			row[i] = float64(n)
			i++
		}
		row[i] = totalPower
		s.tl.Sample(now, row)
	}
	// The window sensors ride the same tick: utilization samples per tier,
	// then a gauge refresh so live HTTP readers see current readings. The
	// samples are utilization of the UP servers — the controller-facing
	// truth during outages — unlike the timeline's tier<j>_util column
	// above, which keeps the configured-capacity view matching Result.Tiers.
	if win := s.tap.win; win != nil {
		for j, st := range s.stations {
			win.ObserveUtilization(now, j, st.instUpUtilization())
		}
		win.Publish(now)
	}
	s.cal.schedule(now+s.probe.Period, evSample, 0, nil, 0, nil)
}

// publishProbe pushes the aggregated counters and run facts into the probe's
// registry (when one is attached) after all replications finished.
func publishProbe(p *Probe, res *Result, horizon float64) {
	reg := p.Registry
	if reg == nil {
		return
	}
	for k := range tapKinds[:numCounted] {
		name := tapKinds[k].csv
		// Counters for inactive features are absent from EventCounts (see
		// probeKindActive); publishing them as zeros would misstate what
		// the run could even observe.
		if n, ok := res.EventCounts[name]; ok {
			reg.Counter("sim_events_"+name+"_total",
				"simulator "+name+" events summed over replications").
				Add(n)
		}
	}
	reg.Gauge("sim_replications", "independent replications run").
		Set(float64(res.Replications))
	reg.Gauge("sim_horizon_seconds", "simulated seconds per replication").
		Set(horizon)
	var completed int64
	for _, n := range res.Completed {
		completed += n
	}
	reg.Gauge("sim_completed_requests", "post-warmup completions, all classes").
		Set(float64(completed))
	reg.Gauge("sim_power_watts", "measured cluster average power").
		Set(res.TotalPower.Mean)
	reg.Gauge("sim_weighted_delay_seconds", "completion-weighted mean end-to-end delay").
		Set(res.WeightedDelay.Mean)
	if res.Timeline != nil {
		reg.Gauge("sim_timeline_samples", "probe samples recorded on replication 0").
			Set(float64(res.Timeline.Len()))
	}
}
