package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// manyServerCluster is three 16-server preemptive-resume tiers in tandem
// serving six classes. Near saturation the tiers are usually full, so an
// arrival of any class but the last can preempt, and the victim is chosen
// among many busy servers of mixed classes.
func manyServerCluster() *cluster.Cluster {
	pm, _ := power.NewPowerLaw(100, 10, 2)
	const classes = 6
	demands := make([]queueing.Demand, classes)
	cls := make([]cluster.Class, classes)
	for k := range cls {
		demands[k] = queueing.Demand{Work: 0.6 + 0.15*float64(k), CV2: 0.5 + 0.5*float64(k%3)}
		cls[k] = cluster.Class{Name: fmt.Sprintf("c%d", k), Lambda: 2.3}
	}
	tier := func(name string) *cluster.Tier {
		return &cluster.Tier{
			Name: name, Servers: 16, Speed: 1, MinSpeed: 0.5, MaxSpeed: 2,
			Discipline: queueing.PreemptiveResume, Power: pm, Demands: demands,
		}
	}
	return &cluster.Cluster{
		Tiers:   []*cluster.Tier{tier("web"), tier("app"), tier("db")},
		Classes: cls,
	}
}

// TestManyServerRunSetGoldenHash pins the running set of many-server
// priority tiers: which run a swap-remove moves where, which job a
// preemption evicts (the first lowest-priority run in slice order), which
// busy server a breakdown hits (running[v]), which run a timeout pulls out
// of service, and how a retune reschedules every run. Every tier breaks
// down, every class has a deadline with retries, and a DVFS controller
// retunes every station each epoch. The digest covers the full event trace (job ids
// included) and the Result with its degraded-mode counters.
func TestManyServerRunSetGoldenHash(t *testing.T) {
	c := manyServerCluster()
	failures := make([]*FailureConfig, len(c.Tiers))
	for j := range failures {
		failures[j] = &FailureConfig{MTBF: 400, MTTR: 20}
	}
	deadlines := make([]*DeadlineConfig, len(c.Classes))
	for k := range deadlines {
		deadlines[k] = &DeadlineConfig{Deadline: 4 + 2*float64(k), MaxRetries: k % 3, RetryBackoff: 1}
	}
	quantiles := []float64{0.9}
	tr := sha256.New()
	res, err := Run(c, Options{
		Horizon: 1500, Replications: 1, Seed: 11, Quantiles: quantiles,
		Controller: UtilizationPolicy{Target: 0.8}, ControlPeriod: 20,
		Failures: failures, Deadlines: deadlines,
		Probe: &Probe{Period: 50},
		Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"preempt", "breakdown", "timeout", "retry", "abandon", "retune"} {
		if res.EventCounts[name] == 0 {
			t.Errorf("no %s events: the run no longer exercises that path", name)
		}
	}
	digest := fmt.Sprintf("%x,%s,%v,%v,%v", tr.Sum(nil), hashResult(res, quantiles), res.Timeouts, res.Retries, res.Abandoned)
	const golden = "e1c510a2e5fa2f53dbfc620fee6dc2fefeab8661cd948832c77e7e6fed580b7f"
	if h := fmt.Sprintf("%x", sha256.Sum256([]byte(digest))); h != golden {
		t.Errorf("many-server run-set hash drifted:\n got %s\nwant %s", h, golden)
	}
}

// refVictim is the linear scan preemption used before the per-class counts:
// the first job in slice order among those of the largest class index.
func refVictim(ref []*job) *job {
	var worst *job
	for _, j := range ref {
		if worst == nil || j.class > worst.class {
			worst = j
		}
	}
	return worst
}

// refDrop is the linear search-and-swap removal used before runs knew their
// slot.
func refDrop(ref []*job, target *job) []*job {
	for i, j := range ref {
		if j == target {
			ref[i] = ref[len(ref)-1]
			return ref[:len(ref)-1]
		}
	}
	return ref
}

// FuzzRunSetMatchesScan drives one preemptive-resume station through a
// random sequence of service starts, removals (a departure or a timeout in
// service), arrivals that may preempt, and retunes that reschedule every
// run, beside a reference that keeps the jobs in service in a plain slice
// updated by the old linear scans. After every step the station's
// set must hold the same jobs in the same order, every run must sit in its
// own slot, the per-class counts must match a recount, and exactly the jobs
// in service must link to their run.
//
// The input's first two bytes size the station (1–16 servers, 1–6
// classes); each later pair of bytes is one operation and its argument.
func FuzzRunSetMatchesScan(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 0, 0, 2, 0, 3, 9, 1, 1, 2, 0})
	rng := NewRNG(1)
	for i := 0; i < 8; i++ {
		b := make([]byte, 600)
		for k := range b {
			b[k] = byte(rng.Uint64())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		servers, classes := 1+int(in[0])%16, 1+int(in[1])%6
		s, st := runSetStation(t, servers, classes)
		var ref, all []*job
		now := 0.0
		newJob := func(class int) *job {
			j := s.allocJob()
			j.id = uint64(len(all) + 1)
			j.class, j.remaining, j.enqueued = class, 1, now
			all = append(all, j)
			return j
		}
		for i := 2; i+1 < len(in); i += 2 {
			op, arg := in[i]%4, int(in[i+1])
			now += 0.25
			switch op {
			case 0: // a service start on a free server
				if st.freeServers() == 0 {
					continue
				}
				j := newJob(arg % classes)
				s.startService(st, j, now)
				ref = append(ref, j)
			case 1: // a run leaves service: its departure, or a timeout
				if len(ref) == 0 {
					continue
				}
				j := ref[arg%len(ref)]
				run := j.run
				s.cancelDeparture(run)
				st.dropRun(run)
				s.freeRun(run)
				ref = refDrop(ref, j)
			case 2: // an arrival, which preempts at a full station
				j := newJob(arg % classes)
				if st.freeServers() > 0 {
					s.arriveAtStation(st, j, now)
					ref = append(ref, j)
					break
				}
				want := refVictim(ref)
				if want != nil && j.class >= want.class {
					want = nil
				}
				if got := st.victimFor(j.class); got == nil && want != nil || got != nil && got.job != want {
					t.Fatalf("step %d: class-%d arrival: victimFor disagrees with the linear scan", i, j.class)
				}
				s.arriveAtStation(st, j, now)
				if want != nil {
					ref = append(refDrop(ref, want), j)
				}
			case 3: // a retune reschedules every run in place
				s.setSpeed(st, now, 0.5+float64(arg)/64)
			}
			checkRunSet(t, i, st, ref, all)
		}
	})
}

// runSetStation builds a simulator around one preemptive-resume station of
// the given size (see stationSim).
func runSetStation(t *testing.T, servers, classes int) (*simulator, *simStation) {
	t.Helper()
	cls := make([]cluster.Class, classes)
	demands := make([]queueing.Demand, classes)
	for k := range cls {
		cls[k] = cluster.Class{Name: fmt.Sprintf("c%d", k), Lambda: 0.1}
		demands[k] = queueing.Demand{Work: 1, CV2: 1}
	}
	return stationSim(t, oneTier(servers, 1, queueing.PreemptiveResume, cls, demands))
}

// checkRunSet asserts the running set's invariants against the reference.
func checkRunSet(t *testing.T, step int, st *simStation, ref, all []*job) {
	t.Helper()
	if len(st.running) != len(ref) {
		t.Fatalf("step %d: %d runs in service, reference has %d", step, len(st.running), len(ref))
	}
	inService := make(map[*job]bool, len(ref))
	count := make([]int, len(st.runCls))
	for i, r := range st.running {
		switch {
		case r.job != ref[i]:
			t.Fatalf("step %d: slot %d holds job %d, the reference job %d", step, i, r.job.id, ref[i].id)
		case r.slot != i:
			t.Fatalf("step %d: the run in slot %d records slot %d", step, i, r.slot)
		case r.job.run != r:
			t.Fatalf("step %d: job %d in slot %d does not link to its run", step, r.job.id, i)
		}
		inService[r.job] = true
		count[r.job.class]++
	}
	for k := range count {
		if st.runCls[k] != count[k] {
			t.Fatalf("step %d: runCls[%d] = %d, recount %d", step, k, st.runCls[k], count[k])
		}
	}
	for _, j := range all {
		if !inService[j] && j.run != nil {
			t.Fatalf("step %d: job %d is out of service but links to a run", step, j.id)
		}
	}
}

// TestDropRunPanicsOnRunNotHeld checks that removing a run the station does
// not hold fails loudly rather than swapping some other run out of the set.
func TestDropRunPanicsOnRunNotHeld(t *testing.T) {
	station := func() (*simStation, []*serviceRun) {
		st := &simStation{runCls: make([]int, 2)}
		var runs []*serviceRun
		for k := 0; k < 3; k++ {
			r := &serviceRun{job: &job{class: k % 2}}
			st.addRun(r)
			runs = append(runs, r)
		}
		return st, runs
	}
	mustPanic := func(t *testing.T, drop func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != errRunNotHeld {
				t.Errorf("recovered %v, want the run-not-held panic", r)
			}
		}()
		drop()
	}
	t.Run("twice", func(t *testing.T) {
		st, runs := station()
		st.dropRun(runs[0])
		mustPanic(t, func() { st.dropRun(runs[0]) })
	})
	t.Run("twice/last", func(t *testing.T) {
		st, runs := station()
		st.dropRun(runs[2])
		mustPanic(t, func() { st.dropRun(runs[2]) })
	})
	t.Run("foreign", func(t *testing.T) {
		st, _ := station()
		_, other := station()
		mustPanic(t, func() { st.dropRun(other[1]) })
	})
}
