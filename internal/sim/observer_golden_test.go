package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// togglePlan parks servers on alternate epochs and nudges the speeds, so a
// run emits a stream of park and retune events rather than a single one.
type togglePlan struct{ epoch int }

func (*togglePlan) Name() string { return "toggle" }

func (p *togglePlan) DecidePlan(obs PlanObservation) PlanDecision {
	p.epoch++
	d := PlanDecision{Speeds: make([]float64, len(obs.Stations)), Servers: make([]int, len(obs.Stations))}
	for j, st := range obs.Stations {
		d.Servers[j] = st.Servers
		d.Speeds[j] = st.Speed
		if p.epoch%2 == 1 {
			d.Servers[j] = 1
			d.Speeds[j] = st.Speed * 1.25
		}
	}
	return d
}

// routedFailureCluster is a two-tier preemptive-resume cluster with one
// probabilistically routed class (random entry tier, feedback between the
// tiers) and one deterministically routed class.
func routedFailureCluster() *cluster.Cluster {
	pm, _ := power.NewPowerLaw(60, 12, 2)
	tier := func(name string, servers int) *cluster.Tier {
		return &cluster.Tier{
			Name: name, Servers: servers, Speed: 1, MinSpeed: 0.5, MaxSpeed: 2,
			Discipline: queueing.PreemptiveResume, Power: pm,
			Demands: []queueing.Demand{{Work: 0.6, CV2: 1}, {Work: 0.9, CV2: 2}},
		}
	}
	return &cluster.Cluster{
		Tiers:   []*cluster.Tier{tier("front", 2), tier("back", 2)},
		Classes: []cluster.Class{{Name: "hi", Lambda: 0.6}, {Name: "lo", Lambda: 0.9}},
		Routing: []*queueing.ClassRouting{
			{Entry: []float64{0.7, 0.3}, Next: [][]float64{{0, 0.5}, {0.2, 0}}},
			nil,
		},
	}
}

// observerStreamsHash runs one replication with every observer attached —
// CSV trace, flight recorder, window sensors and probe — and digests what
// each of them saw: the trace bytes, the recorder's event ring, spans and
// per-class breakdowns, the event counters, the probe timeline, and a final
// window-sensor snapshot. It also returns the set of trace kinds emitted.
func observerStreamsHash(t *testing.T, c *cluster.Cluster, o Options) (string, map[string]bool) {
	t.Helper()
	var csv bytes.Buffer
	rec := trace.NewRecorder(1 << 18)
	win, err := window.NewSet(window.Config{Width: 200}, len(c.Classes), len(c.Tiers))
	if err != nil {
		t.Fatal(err)
	}
	o.Replications = 1
	o.Trace = &csv
	o.Recorder = rec
	o.Windows = win
	o.Probe = &Probe{Period: 10}
	res, err := Run(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.EventsDropped() != 0 {
		t.Fatalf("recorder ring overflow (%d events): grow the capacity", rec.EventsDropped())
	}

	kinds := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(csv.String()), "\n")[1:] {
		kinds[strings.Split(line, ",")[1]] = true
	}

	var d bytes.Buffer // the digest input
	put := func(vals ...float64) {
		for _, v := range vals {
			d.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
			d.WriteByte(',')
		}
	}
	d.Write(csv.Bytes())
	for _, e := range rec.Events() {
		fmt.Fprintf(&d, "e%d,%d,%d,%d,", e.Kind, e.Job, e.Class, e.Station)
		put(e.T, e.Value)
	}
	for _, sp := range rec.Spans() {
		fmt.Fprintf(&d, "s%d,%d,%d,%d,", sp.Job, sp.Class, sp.Attempts, sp.Outcome)
		put(sp.Arrival, sp.End, sp.Queue, sp.Service, sp.Preempted, sp.Backoff)
	}
	for _, b := range rec.Breakdowns() {
		fmt.Fprintf(&d, "b%d,%d,%d,%d,", b.Class, b.Completed, b.Abandoned, b.Dropped)
		put(b.Queue, b.Service, b.Preempted, b.Backoff)
	}
	fmt.Fprintf(&d, "open%d,unmatched%d,", rec.OpenSpans(), rec.Unmatched())
	d.WriteString(hashResult(res, nil))
	if err := res.Timeline.WriteCSV(&d); err != nil {
		t.Fatal(err)
	}
	for k := range c.Classes {
		cs := win.Class(o.Horizon, k)
		fmt.Fprintf(&d, "w%d,%d,", k, cs.Sojourns)
		put(cs.Rate, cs.MeanSojourn, cs.TailSojourn, cs.Covered)
	}
	for j := range c.Tiers {
		put(win.Utilization(o.Horizon, j))
	}
	return fmt.Sprintf("%x", sha256.Sum256(d.Bytes())), kinds
}

// TestObserverStreamsGoldenHash is the behaviour contract of the simulator's
// observer plumbing: every stream each observer receives — not just the
// aggregated Result — must stay bit-identical. The hashes were recorded
// before the observers were fed through a single lifecycle tap and the
// per-station Controller was adapted into a PlanController. Between them
// the two cases emit every trace-event kind.
func TestObserverStreamsGoldenHash(t *testing.T) {
	cases := []struct {
		name   string
		c      *cluster.Cluster
		o      Options
		golden string
	}{
		{
			// Preemption, breakdowns, deadlines with retries and
			// abandonment, shedding, probabilistic routing, and a
			// per-station DVFS policy.
			name: "failures",
			c:    routedFailureCluster(),
			o: Options{
				Horizon: 2500, Seed: 21,
				Controller: UtilizationPolicy{Target: 0.6}, ControlPeriod: 25,
				Failures: []*FailureConfig{nil, {MTBF: 60, MTTR: 6}},
				Deadlines: []*DeadlineConfig{
					{Deadline: 15, MaxRetries: 1, RetryBackoff: 1},
					{Deadline: 8, MaxRetries: 2, RetryBackoff: 2},
				},
				Shedding: &SheddingConfig{Threshold: 0.7, Period: 20},
			},
			golden: "a7c867d2c68d8c8f342b810734cdb3f0fa8306f7e635263b46c2faf11e4b8c96",
		},
		{
			// A sleeping tier beside a tier a plan controller parks and
			// retunes every other epoch.
			name: "sleep-park",
			c:    powerPathCluster(queueing.NonPreemptive),
			o: Options{
				Horizon: 2500, Seed: 22,
				PlanController: &togglePlan{}, ControlPeriod: 30,
				Sleep: []*SleepConfig{
					{Setup: queueing.NewExponential(0.8), SleepPower: 9},
					nil,
				},
			},
			golden: "f78fabfad37f0df681c0f03dcd057e7a71544a497f3222219866760f1b2c06bd",
		},
	}
	seen := make(map[string]bool)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, kinds := observerStreamsHash(t, tc.c, tc.o)
			for k := range kinds {
				seen[k] = true
			}
			if h != tc.golden {
				t.Errorf("%s observer streams drifted from the golden:\n got %s\nwant %s", tc.name, h, tc.golden)
			}
		})
	}
	for _, k := range []string{
		traceArrival, traceStart, tracePreempt, traceVisitEnd, traceExit,
		traceRetune, traceSetupBegin, traceSetupDone, traceBreakdown,
		traceRepair, traceTimeout, traceRetry, traceAbandon, traceShed,
		traceShedLevel, tracePark,
	} {
		if !seen[k] {
			t.Errorf("no case emitted trace kind %q", k)
		}
	}
}
