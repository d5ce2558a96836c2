package sim

import (
	"fmt"
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// refTimeWeighted is the one-accumulator-per-series time average the
// station's segment clock replaced (its unread min/max tracking left out).
// Every segClock series must match it bit for bit.
type refTimeWeighted struct {
	started bool
	lastT   float64
	lastV   float64
	area    float64
	origin  float64
}

func (tw *refTimeWeighted) StartAt(t, v float64) {
	tw.started = true
	tw.origin = t
	tw.lastT = t
	tw.lastV = v
	tw.area = 0
}

func (tw *refTimeWeighted) Observe(t, v float64) {
	if !tw.started {
		tw.StartAt(t, v)
		return
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("refTimeWeighted.Observe time went backwards: %g < %g", t, tw.lastT))
	}
	tw.area += tw.lastV * (t - tw.lastT)
	tw.lastT = t
	tw.lastV = v
}

func (tw *refTimeWeighted) MeanAt(t float64) float64 {
	if !tw.started || t <= tw.origin {
		return math.NaN()
	}
	area := tw.area + tw.lastV*(t-tw.lastT)
	return area / (t - tw.origin)
}

// TestSegmentClockMatchesReference drives a station through random
// interleavings of state changes (several at one instant), restarts of each
// series at times after the last segment boundary, and mean reads, and
// requires every area and mean to equal the per-series reference bitwise.
func TestSegmentClockMatchesReference(t *testing.T) {
	pm, err := power.NewPowerLaw(100, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, attached := range []bool{false, true} {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := NewRNG(seed)
			pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
			st := &simStation{servers: 8, pm: pm, running: make([]*serviceRun, 0, 8)}
			st.setLevels(1)
			c := &st.clock
			c.p = st.instPower()
			c.epochOn, c.shedOn = attached, attached

			// Series 1 integrates the power; the others the busy count.
			series := []*segArea{&c.busy, &c.power, &c.epochBusy, &c.shedBusy}
			if !attached {
				series = series[:2]
			}
			value := func(i int) float64 { // the live level
				if i == 1 {
					return st.instPower()
				}
				return float64(len(st.running))
			}
			current := func(i int) float64 { // the clock's cached level
				if i == 1 {
					return c.p
				}
				return c.b
			}
			ref := make([]refTimeWeighted, len(series))
			for i := range ref {
				ref[i].StartAt(0, value(i))
			}

			now := 0.0
			for step := 0; step < 3000; step++ {
				if rng.Float64() < 0.7 {
					now += rng.Exp(1)
				}
				switch op := pick(10); {
				case op < 6: // a state change the station observes
					switch pick(4) {
					case 0:
						st.setLevels(0.25 + 2*rng.Float64())
					case 1:
						st.failed = pick(3)
					case 2:
						st.parked = pick(3)
					default:
						st.running = st.running[:pick(st.servers+1)]
					}
					st.observeBusy(now)
					for i := range ref {
						ref[i].Observe(now, value(i))
					}
				case op < 8: // one series restarts at now
					i := pick(len(series))
					series[i].restart(now)
					ref[i].StartAt(now, value(i))
				default: // a mean read at now
					i := pick(len(series))
					got, want := c.mean(series[i], current(i), now), ref[i].MeanAt(now)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("attached=%v seed %d step %d: series %d mean %v, reference %v",
							attached, seed, step, i, got, want)
					}
				}
				for i, a := range series {
					if math.Float64bits(a.area) != math.Float64bits(ref[i].area) {
						t.Fatalf("attached=%v seed %d step %d: series %d area %v, reference %v",
							attached, seed, step, i, a.area, ref[i].area)
					}
				}
			}
		}
	}
}

// TestStationClockBackwardsTimePanics keeps the accumulator's guard: an
// observation before the clock's last one is a bug in the caller.
func TestStationClockBackwardsTimePanics(t *testing.T) {
	st := &simStation{servers: 1}
	st.observeBusy(10)
	defer func() {
		if r := recover(); r != errClockBackwards {
			t.Errorf("recovered %v, want the backwards-clock panic", r)
		}
	}()
	st.observeBusy(5)
}

// cyclePlan replays a fixed list of decisions, one per control epoch.
type cyclePlan struct {
	ds []PlanDecision
	i  int
}

func (*cyclePlan) Name() string { return "cycle" }
func (p *cyclePlan) DecidePlan(PlanObservation) PlanDecision {
	d := p.ds[p.i%len(p.ds)]
	p.i++
	return d
}

// twoTier builds a two-tier, two-class tandem with the given disciplines.
func twoTier(servers [2]int, discs [2]queueing.Discipline) *cluster.Cluster {
	pm, _ := power.NewPowerLaw(100, 10, 2)
	demands := []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1.5, CV2: 2}}
	c := &cluster.Cluster{Classes: []cluster.Class{{Name: "hi", Lambda: 0.5}, {Name: "lo", Lambda: 0.6}}}
	for j := range servers {
		c.Tiers = append(c.Tiers, &cluster.Tier{
			Name: fmt.Sprintf("t%d", j), Servers: servers[j], Speed: 1,
			Discipline: discs[j], Power: pm, Demands: demands,
		})
	}
	return c
}

// TestStationClockCachesLevels pins the invariant that lets readers use the
// clock's cached levels: after every event, each station's busy count and
// power equal len(running) and instPower() bitwise. A state change that
// skips observeBusy breaks it. The runs cover sleep and setup, breakdowns
// and repairs, deadlines, shedding, parking and mid-run retunes.
func TestStationClockCachesLevels(t *testing.T) {
	retunes := []PlanDecision{
		{Speeds: []float64{1.5, 0.8}, Servers: []int{0, 1}},
		{Speeds: []float64{0.9, 1.4}, Servers: []int{0, 3}},
		{Speeds: []float64{1.2, 1.1}, Servers: []int{0, 2}},
	}
	cases := []struct {
		name  string
		c     *cluster.Cluster
		o     Options
		kinds []string
	}{
		{
			name: "sleep",
			c:    twoTier([2]int{2, 3}, [2]queueing.Discipline{queueing.NonPreemptive, queueing.PreemptiveResume}),
			o: Options{
				Sleep:          []*SleepConfig{{Setup: queueing.NewExponential(0.5), SleepPower: 5}, nil},
				PlanController: &cyclePlan{ds: retunes},
				ControlPeriod:  40,
			},
			kinds: []string{traceSetupBegin, traceSetupDone, traceRetune, tracePark, tracePreempt},
		},
		{
			name: "failures",
			c:    twoTier([2]int{3, 3}, [2]queueing.Discipline{queueing.PreemptiveResume, queueing.FCFS}),
			o: Options{
				Failures:       []*FailureConfig{{MTBF: 60, MTTR: 15}, {MTBF: 80, MTTR: 10}},
				Deadlines:      []*DeadlineConfig{{Deadline: 10, MaxRetries: 1}, {Deadline: 15}},
				Shedding:       &SheddingConfig{Threshold: 0.4, Period: 20},
				PlanController: &cyclePlan{ds: retunes},
				ControlPeriod:  30,
			},
			kinds: []string{traceBreakdown, traceRepair, traceTimeout, traceShed, traceRetune, tracePark, tracePreempt},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			o.Horizon, o.Probe = 3000, &Probe{Period: 7}
			rep, err := NewReplication(tc.c, o, 5)
			if err != nil {
				t.Fatal(err)
			}
			for rep.ProcessNextEvent() {
				for _, st := range rep.s.stations {
					c := &st.clock
					if math.Float64bits(c.b) != math.Float64bits(float64(len(st.running))) ||
						math.Float64bits(c.p) != math.Float64bits(st.instPower()) {
						t.Fatalf("t=%g station %d: cached busy %v power %v, live %d and %v",
							rep.Now(), st.idx, c.b, c.p, len(st.running), st.instPower())
					}
				}
			}
			res, err := rep.Result()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range tc.kinds {
				if res.EventCounts[k] == 0 {
					t.Errorf("no %s events: the run does not exercise that path", k)
				}
			}
		})
	}
}

// TestStationIntegralsConserve checks the clock's integrals against the
// service accounting kept apart from it. At a fixed speed with no warmup,
// failures or parking, the busy-server integral is the banked service time
// (each segment's dynamic energy over the power gap) plus the runs still
// open at the horizon, and the power integral is busy power over that area
// plus idle power over the rest of the servers' time.
func TestStationIntegralsConserve(t *testing.T) {
	for _, disc := range []queueing.Discipline{queueing.FCFS, queueing.PreemptiveResume} {
		c := twoTier([2]int{1, 2}, [2]queueing.Discipline{disc, disc})
		rep, err := NewReplication(c, Options{Horizon: 20000, Warmup: ZeroWarmup}, 9)
		if err != nil {
			t.Fatal(err)
		}
		rep.Run()
		T := rep.Horizon()
		for _, st := range rep.s.stations {
			ck := &st.clock
			busyArea := ck.busy.area + ck.b*(T-ck.t)
			var served float64
			for _, e := range st.svcEnergy {
				served += e
			}
			served /= st.powerGap()
			for _, r := range st.running {
				served += T - r.start
			}
			if relErr(busyArea, served) > 1e-9 {
				t.Errorf("%v station %d: ∫busy dt = %.12g, banked service time %.12g", disc, st.idx, busyArea, served)
			}
			powerArea := ck.power.area + ck.p*(T-ck.t)
			want := st.busyW*busyArea + st.idleW*(float64(st.servers)*T-busyArea)
			if relErr(powerArea, want) > 1e-9 {
				t.Errorf("%v station %d: ∫P dt = %.12g, want %.12g", disc, st.idx, powerArea, want)
			}
		}
	}
}
