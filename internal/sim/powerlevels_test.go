package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// powerPathCluster is a two-tier cluster whose power accounting takes the
// paths TestPooledCalendarGoldenHash's single PowerLaw tier does not: tier 0
// ("web") is a PowerLaw tier (sleep-capable), tier 1 ("db") a discrete-DVFS
// power.Table tier whose speeds fall between table points, so a retune lands
// on the interpolating branch.
func powerPathCluster(disc queueing.Discipline) *cluster.Cluster {
	web, _ := power.NewPowerLaw(90, 14, 2.5)
	db, _ := power.NewTable(55, []float64{0.5, 1, 1.5, 2, 3}, []float64{70, 95, 130, 180, 300})
	classes := []cluster.Class{{Name: "hi", Lambda: 0.5}, {Name: "lo", Lambda: 0.6}}
	return &cluster.Cluster{
		Tiers: []*cluster.Tier{
			{
				Name: "web", Servers: 3, Speed: 1.3, MinSpeed: 0.6, MaxSpeed: 2.4,
				Discipline: disc, Power: web,
				Demands: []queueing.Demand{{Work: 1.2, CV2: 1}, {Work: 1.6, CV2: 1.5}},
			},
			{
				Name: "db", Servers: 2, Speed: 1.1, MinSpeed: 0.7, MaxSpeed: 2.8,
				Discipline: disc, Power: db,
				Demands: []queueing.Demand{{Work: 0.8, CV2: 1}, {Work: 1.1, CV2: 2}},
			},
		},
		Classes: classes,
	}
}

// hashResultTimeline extends hashResult with the probe timeline's CSV, whose
// per-tier power columns are the sampling tick's instantaneous power reads.
func hashResultTimeline(t *testing.T, res *Result, quantiles []float64) string {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(hashResult(res, quantiles))
	if err := res.Timeline.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestSleepAndTablePowerGoldenHash pins the power integral on the paths the
// PowerLaw goldens miss: a sleep-enabled tier (whose instantaneous power
// charges warming-up servers at the busy level) and a power.Table tier
// retuned mid-run by UtilizationPolicy. Both hashes were recorded before the
// simulator cached each station's busy and idle power at its current speed;
// the cache is pure bookkeeping, so they must not move.
func TestSleepAndTablePowerGoldenHash(t *testing.T) {
	quantiles := []float64{0.9, 0.95}
	cases := []struct {
		name   string
		disc   queueing.Discipline
		sleep  []*SleepConfig
		golden string
	}{
		{
			// Tier 0 sleeps with exponential setups; the controller retunes
			// both tiers, so the sleeping tier's setup power follows its speed.
			name: "sleep",
			disc: queueing.NonPreemptive,
			sleep: []*SleepConfig{
				{Setup: queueing.NewExponential(0.8), SleepPower: 9},
				nil,
			},
			golden: "ed9f5da11180b31b23955c4a149cc8eadb512faa227ff652d079ce9c4851806f",
		},
		{
			// Always-on, preemptive-resume: retunes strand departures whose
			// segments are banked at the Table tier's interpolated levels.
			name:   "table",
			disc:   queueing.PreemptiveResume,
			golden: "6c8466bfdc1e400b4d355a7953bd84e11a74db6b9389203661ff7f3ad279819b",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(powerPathCluster(tc.disc), Options{
				Horizon: 3000, Replications: 3, Seed: 11, Quantiles: quantiles,
				Sleep:      tc.sleep,
				Controller: UtilizationPolicy{Target: 0.6}, ControlPeriod: 20,
				Probe: &Probe{Period: 10},
			})
			if err != nil {
				t.Fatal(err)
			}
			if h := hashResultTimeline(t, res, quantiles); h != tc.golden {
				t.Errorf("%s Result hash drifted from the golden:\n got %s\nwant %s", tc.name, h, tc.golden)
			}
		})
	}
}

// assertPowerLevels checks every station's cached per-server power against a
// fresh evaluation of its power model at the current speed — bit-exactly,
// since the cache must be the same float64 products the model returns.
func assertPowerLevels(t *testing.T, s *simulator, when string) {
	t.Helper()
	for _, st := range s.stations {
		if busy := st.pm.BusyPower(st.speed); st.busyW != busy {
			t.Fatalf("%s: station %d busy level %v, model gives %v at speed %v", when, st.idx, st.busyW, busy, st.speed)
		}
		if idle := st.pm.IdlePower(st.speed); st.idleW != idle {
			t.Fatalf("%s: station %d idle level %v, model gives %v at speed %v", when, st.idx, st.idleW, idle, st.speed)
		}
	}
}

// TestStationPowerLevelsTrackSpeed pins the power-level cache's coherence:
// after construction, after per-station Controller retunes, and after
// PlanController decisions, across an AdvanceTo-sliced stepped replication,
// every station's cached busy and idle power equal its power model at its
// current speed. Code that assigns a station's speed without going through
// setLevels fails here.
func TestStationPowerLevelsTrackSpeed(t *testing.T) {
	cases := []struct {
		name string
		set  func(o *Options)
	}{
		{"controller", func(o *Options) { o.Controller = UtilizationPolicy{Target: 0.6} }},
		{"plan", func(o *Options) {
			// Both speeds lie inside the clamp range and differ from the
			// initial ones; the Table tier's lands between table points.
			o.PlanController = fixedPlan{PlanDecision{Speeds: []float64{1.9, 2.2}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := powerPathCluster(queueing.PreemptiveResume)
			o := Options{Horizon: 1000, Seed: 5, ControlPeriod: 20}
			tc.set(&o)
			r, err := NewReplication(c, o, o.Seed)
			if err != nil {
				t.Fatal(err)
			}
			assertPowerLevels(t, r.s, "after construction")
			retuned := false
			for next := 7.0; r.HasPendingEvents(); next += 7 {
				r.AdvanceTo(next)
				assertPowerLevels(t, r.s, fmt.Sprintf("at t=%g", r.Now()))
				for j, st := range r.s.stations {
					retuned = retuned || st.speed != c.Tiers[j].Speed
				}
			}
			if !retuned {
				t.Fatal("no station was retuned; the test does not exercise setSpeed")
			}
		})
	}
}
